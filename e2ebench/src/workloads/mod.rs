pub mod formation_cold;
pub mod lifecycle;
pub mod tn_service;
