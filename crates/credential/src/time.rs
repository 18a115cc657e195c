//! Reproducible timestamps and validity windows.
//!
//! Credentials carry validity dates (the paper's Example 1 credential is
//! valid "from the 2009-10-26T21:32:52 to the 2010-10-26T21:32:52"). To keep
//! the whole system deterministic — negotiations, benches, and tests never
//! consult the wall clock — time is represented as seconds relative to the
//! Unix epoch and *supplied by the caller* (usually the simulation clock in
//! `trust-vo-soa`).

/// A point in time: seconds since 1970-01-01T00:00:00 (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Construct from a civil date and time (UTC).
    ///
    /// Uses Howard Hinnant's `days_from_civil` algorithm, exact over the
    /// whole proleptic Gregorian calendar.
    pub fn from_ymd_hms(year: i64, month: u8, day: u8, hour: u8, min: u8, sec: u8) -> Self {
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(month);
        let d = i64::from(day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        let days = era * 146_097 + doe - 719_468;
        Timestamp(days * 86_400 + i64::from(hour) * 3_600 + i64::from(min) * 60 + i64::from(sec))
    }

    /// Decompose into `(year, month, day, hour, minute, second)`.
    pub fn to_ymd_hms(self) -> (i64, u8, u8, u8, u8, u8) {
        let secs = self.0.rem_euclid(86_400);
        let days = (self.0 - secs) / 86_400;
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        let year = if m <= 2 { y + 1 } else { y };
        (
            year,
            m as u8,
            d as u8,
            (secs / 3_600) as u8,
            ((secs % 3_600) / 60) as u8,
            (secs % 60) as u8,
        )
    }

    /// Parse an ISO-8601 `YYYY-MM-DDTHH:MM:SS` string (the format the
    /// paper's credentials use in `<expiration_Date>` elements).
    pub fn parse_iso(text: &str) -> Option<Self> {
        let bytes = text.as_bytes();
        if bytes.len() != 19
            || bytes[4] != b'-'
            || bytes[7] != b'-'
            || bytes[10] != b'T'
            || bytes[13] != b':'
            || bytes[16] != b':'
        {
            return None;
        }
        let year: i64 = text[0..4].parse().ok()?;
        let month: u8 = text[5..7].parse().ok()?;
        let day: u8 = text[8..10].parse().ok()?;
        let hour: u8 = text[11..13].parse().ok()?;
        let min: u8 = text[14..16].parse().ok()?;
        let sec: u8 = text[17..19].parse().ok()?;
        if !(1..=12).contains(&month)
            || !(1..=days_in_month(year, month)).contains(&day)
            || hour > 23
            || min > 59
            || sec > 59
        {
            return None;
        }
        Some(Self::from_ymd_hms(year, month, day, hour, min, sec))
    }

    /// Format as ISO-8601 `YYYY-MM-DDTHH:MM:SS` (the [`Display`] form).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn to_iso(self) -> String {
        self.to_string()
    }

    /// Shift by whole seconds.
    #[must_use]
    pub fn plus_seconds(self, secs: i64) -> Self {
        Timestamp(self.0 + secs)
    }

    /// Shift by whole days.
    #[must_use]
    pub fn plus_days(self, days: i64) -> Self {
        self.plus_seconds(days * 86_400)
    }
}

/// Days in `month` of `year`, proleptic Gregorian (leap-year aware).
fn days_in_month(year: i64, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl std::fmt::Display for Timestamp {
    /// ISO-8601 `YYYY-MM-DDTHH:MM:SS`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_ymd_hms();
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}")
    }
}

/// A half-open-at-neither-end validity window `[not_before, not_after]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// First instant at which the credential is valid.
    pub not_before: Timestamp,
    /// Last instant at which the credential is valid.
    pub not_after: Timestamp,
}

impl TimeRange {
    /// Build a range; panics if inverted (a programming error in scenario setup).
    pub fn new(not_before: Timestamp, not_after: Timestamp) -> Self {
        assert!(not_before <= not_after, "inverted validity range");
        TimeRange {
            not_before,
            not_after,
        }
    }

    /// A one-year window starting at `from` (the paper's running example).
    pub fn one_year_from(from: Timestamp) -> Self {
        Self::new(from, from.plus_days(365))
    }

    /// Is `at` inside the window?
    pub fn contains(&self, at: Timestamp) -> bool {
        self.not_before <= at && at <= self.not_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0).0, 0);
    }

    #[test]
    fn paper_example_dates() {
        // The Example 1 credential validity window.
        let from = Timestamp::parse_iso("2009-10-26T21:32:52").unwrap();
        let to = Timestamp::parse_iso("2010-10-26T21:32:52").unwrap();
        assert!(from < to);
        assert_eq!(from.to_iso(), "2009-10-26T21:32:52");
        assert_eq!(to.to_iso(), "2010-10-26T21:32:52");
        assert_eq!(to.0 - from.0, 365 * 86_400);
    }

    #[test]
    fn leap_year_handling() {
        let feb29 = Timestamp::from_ymd_hms(2008, 2, 29, 12, 0, 0);
        assert_eq!(feb29.to_iso(), "2008-02-29T12:00:00");
        // 2008-02-28 + 1 day == 2008-02-29
        let feb28 = Timestamp::from_ymd_hms(2008, 2, 28, 12, 0, 0);
        assert_eq!(feb28.plus_days(1), feb29);
        // Non-leap year: 2009-02-28 + 1 day == 2009-03-01
        assert_eq!(
            Timestamp::from_ymd_hms(2009, 2, 28, 0, 0, 0)
                .plus_days(1)
                .to_iso(),
            "2009-03-01T00:00:00"
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "2009-10-26",
            "2009/10/26T21:32:52",
            "2009-13-26T21:32:52",
            "2009-10-26T25:32:52",
            "2009-10-26T21:61:52",
            "garbage!!!!!!!!!!!!",
            "",
        ] {
            assert!(Timestamp::parse_iso(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn parse_rejects_calendar_invalid_days() {
        // Regression: the seed's flat 1..=31 day check accepted Feb 30,
        // which silently normalized to Mar 2 via days_from_civil.
        for bad in [
            "2009-02-30T00:00:00",
            "2009-02-29T00:00:00", // 2009 is not a leap year
            "2100-02-29T00:00:00", // century non-leap
            "2009-04-31T00:00:00",
            "2009-06-31T12:30:00",
            "2009-09-31T00:00:00",
            "2009-11-31T00:00:00",
            "2009-01-32T00:00:00",
            "2009-01-00T00:00:00",
        ] {
            assert!(Timestamp::parse_iso(bad).is_none(), "{bad}");
        }
        // Valid calendar boundaries still parse.
        for good in [
            "2008-02-29T00:00:00", // leap year
            "2000-02-29T00:00:00", // 400-year leap
            "2009-01-31T23:59:59",
            "2009-04-30T00:00:00",
            "2009-12-31T23:59:59",
        ] {
            let t = Timestamp::parse_iso(good).expect(good);
            assert_eq!(t.to_iso(), good);
        }
    }

    #[test]
    fn range_contains() {
        let r = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 10, 26, 0, 0, 0));
        assert!(r.contains(Timestamp::from_ymd_hms(2010, 1, 1, 0, 0, 0)));
        assert!(r.contains(r.not_before));
        assert!(r.contains(r.not_after));
        assert!(!r.contains(r.not_before.plus_seconds(-1)));
        assert!(!r.contains(r.not_after.plus_seconds(1)));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        TimeRange::new(Timestamp(10), Timestamp(5));
    }

    proptest! {
        #[test]
        fn ymd_roundtrip(secs in -30_000_000_000i64..30_000_000_000i64) {
            let t = Timestamp(secs);
            let (y, mo, d, h, mi, s) = t.to_ymd_hms();
            prop_assert_eq!(Timestamp::from_ymd_hms(y, mo, d, h, mi, s), t);
        }

        #[test]
        fn iso_roundtrip(secs in 0i64..10_000_000_000i64) {
            let t = Timestamp(secs);
            prop_assert_eq!(Timestamp::parse_iso(&t.to_iso()), Some(t));
        }

        #[test]
        fn parse_accepts_iff_calendar_valid(
            year in 1i64..9999,
            month in 0u8..15,
            day in 0u8..35,
        ) {
            let text = format!("{year:04}-{month:02}-{day:02}T12:00:00");
            let valid = (1..=12).contains(&month)
                && (1..=days_in_month(year, month)).contains(&day);
            let parsed = Timestamp::parse_iso(&text);
            prop_assert_eq!(parsed.is_some(), valid, "{}", text);
            if let Some(t) = parsed {
                // A valid date must round-trip to the same civil form —
                // the seed's Feb-30 bug normalized instead.
                prop_assert_eq!(t.to_iso(), text);
            }
        }
    }
}
