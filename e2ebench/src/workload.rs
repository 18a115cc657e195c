//! What the runner needs from a workload.

use std::time::Duration;

use trust_vo_obs::Collector;

use crate::attrib::Layer;

/// One completed op.
#[derive(Debug, Default)]
pub struct Op {
    /// The timed part of the op; input generation and output checks are
    /// outside it.
    pub wall: Duration,
    /// Trust negotiations the op completed.
    pub negotiations: u64,
    /// Why the op's output failed its check, if it did.
    pub failure: Option<String>,
    /// Per-op counts for the traced report (summed over the count window).
    pub counts: Vec<(&'static str, f64)>,
    /// Parts of the op the benchmark timed itself, outside every span.
    pub outside: Vec<(Layer, f64)>,
}

/// A closed-loop workload driven by one client thread.
pub trait Workload: Sized {
    /// Ops per round. Throughput is the median over rounds.
    const ROUND: usize;
    /// Ops per second of the measured window: a loop over `s` seconds
    /// runs `s × OPS_PER_S` ops (rounded up to whole rounds), whatever
    /// the host's speed, so every run does the same work and reaches the
    /// same memory. Chosen so the ops fill at most about half the window,
    /// leaving room for a slower version to finish in it.
    const OPS_PER_S: usize;
    /// Traced runs take count metrics over exactly this many ops after
    /// set-up (a multiple of [`Workload::ROUND`]).
    const COUNT_OPS: usize;

    /// Set-up: a fixed amount of work that leaves the workload ready for
    /// its first timed op. Runs with distinct `generation`s never share
    /// generated identities.
    fn setup(seed: u64, generation: u64) -> Result<Self, String>;

    /// Route every later op's spans into `collector`.
    fn trace_into(&mut self, collector: &Collector);

    /// Run op `i` (0-based since set-up) and check its output.
    fn op(&mut self, i: u64) -> Op;

    /// Counters the workload itself holds (journal, store), read around
    /// the traced run's count window.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}
