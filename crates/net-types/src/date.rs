//! Civil dates with day arithmetic.
//!
//! The entire study is indexed at day granularity (daily DROP snapshots,
//! daily ROA archives, daily RIR stats files), so a compact civil-date type
//! with cheap day arithmetic is all we need. The implementation uses the
//! standard days-from-civil / civil-from-days algorithms (Howard Hinnant's
//! public-domain formulation) over a proleptic Gregorian calendar.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

use crate::ParseError;

/// A month of the year, 1-based as in ISO 8601.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Month {
    January = 1,
    February = 2,
    March = 3,
    April = 4,
    May = 5,
    June = 6,
    July = 7,
    August = 8,
    September = 9,
    October = 10,
    November = 11,
    December = 12,
}

impl Month {
    /// Construct from a 1-based month number.
    pub fn from_number(n: u32) -> Option<Month> {
        use Month::*;
        Some(match n {
            1 => January,
            2 => February,
            3 => March,
            4 => April,
            5 => May,
            6 => June,
            7 => July,
            8 => August,
            9 => September,
            10 => October,
            11 => November,
            12 => December,
            _ => return None,
        })
    }

    /// 1-based month number.
    pub fn number(self) -> u32 {
        self as u32
    }
}

/// A civil (calendar) date stored as days since 1970-01-01.
///
/// Supports O(1) conversion to and from `(year, month, day)`, day
/// arithmetic via `+`/`-`, and parsing of the two spellings the archives
/// use: `YYYY-MM-DD` and compact `YYYYMMDD` (RIR stats files).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Days since the Unix epoch (1970-01-01); may be negative.
    days: i32,
}

impl Date {
    /// Construct from civil year/month/day. Panics if the day is invalid
    /// for the month (use [`Date::try_from_ymd`] for fallible construction).
    #[allow(clippy::panic)] // documented invariant of this infallible constructor
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        Self::try_from_ymd(year, month, day)
            .unwrap_or_else(|| panic!("invalid date {year:04}-{month:02}-{day:02}"))
    }

    /// Fallible construction from civil year/month/day.
    pub fn try_from_ymd(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date {
            days: days_from_civil(year, month, day),
        })
    }

    /// Construct directly from a days-since-epoch count.
    pub fn from_days_since_epoch(days: i32) -> Date {
        Date { days }
    }

    /// Days since 1970-01-01.
    pub fn days_since_epoch(self) -> i32 {
        self.days
    }

    /// The civil (year, month, day) triple.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.days)
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month, 1-based.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Day of month, 1-based.
    pub fn day(self) -> u32 {
        self.ymd().2
    }

    /// The next day.
    pub fn succ(self) -> Date {
        Date {
            days: self.days + 1,
        }
    }

    /// The previous day.
    pub fn pred(self) -> Date {
        Date {
            days: self.days - 1,
        }
    }

    /// Number of days from `earlier` to `self` (negative if `self` is
    /// before `earlier`).
    pub fn days_since(self, earlier: Date) -> i32 {
        self.days - earlier.days
    }

    /// First day of this date's month.
    pub fn first_of_month(self) -> Date {
        let (y, m, _) = self.ymd();
        Date::from_ymd(y, m, 1)
    }

    /// Render in compact `YYYYMMDD` form (RIR stats file convention).
    pub fn to_compact_string(self) -> String {
        self.compact().to_string()
    }

    /// Display adapter for the compact `YYYYMMDD` form — lets writers
    /// stream dates into an existing buffer without allocating.
    pub fn compact(self) -> CompactDate {
        CompactDate(self)
    }

    /// Parse compact `YYYYMMDD` form.
    pub fn parse_compact(s: &str) -> Result<Date, ParseError> {
        if s.len() != 8 || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::new("Date", s, "expected YYYYMMDD"));
        }
        let digits = |_| ParseError::new("Date", s, "expected YYYYMMDD");
        let y: i32 = s[0..4].parse().map_err(digits)?;
        let m: u32 = s[4..6].parse().map_err(digits)?;
        let d: u32 = s[6..8].parse().map_err(digits)?;
        Date::try_from_ymd(y, m, d)
            .ok_or_else(|| ParseError::new("Date", s, "no such calendar day"))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// See [`Date::compact`].
#[derive(Debug, Clone, Copy)]
pub struct CompactDate(Date);

impl fmt::Display for CompactDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.0.ymd();
        write!(f, "{y:04}{m:02}{d:02}")
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

impl FromStr for Date {
    type Err = ParseError;

    /// Parses `YYYY-MM-DD`; falls back to compact `YYYYMMDD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if !s.contains('-') {
            return Date::parse_compact(s);
        }
        let mut it = s.splitn(3, '-');
        let (Some(y), Some(m), Some(d)) = (it.next(), it.next(), it.next()) else {
            return Err(ParseError::new("Date", s, "expected YYYY-MM-DD"));
        };
        let y: i32 = y
            .parse()
            .map_err(|_| ParseError::new("Date", s, "bad year"))?;
        let m: u32 = m
            .parse()
            .map_err(|_| ParseError::new("Date", s, "bad month"))?;
        let d: u32 = d
            .parse()
            .map_err(|_| ParseError::new("Date", s, "bad day"))?;
        Date::try_from_ymd(y, m, d)
            .ok_or_else(|| ParseError::new("Date", s, "no such calendar day"))
    }
}

impl Add<i32> for Date {
    type Output = Date;
    fn add(self, rhs: i32) -> Date {
        Date {
            days: self.days + rhs,
        }
    }
}

impl AddAssign<i32> for Date {
    fn add_assign(&mut self, rhs: i32) {
        self.days += rhs;
    }
}

impl Sub<i32> for Date {
    type Output = Date;
    fn sub(self, rhs: i32) -> Date {
        Date {
            days: self.days - rhs,
        }
    }
}

impl SubAssign<i32> for Date {
    fn sub_assign(&mut self, rhs: i32) {
        self.days -= rhs;
    }
}

impl Sub<Date> for Date {
    type Output = i32;
    fn sub(self, rhs: Date) -> i32 {
        self.days - rhs.days
    }
}

/// A half-open range of dates `[start, end)`, iterable day by day.
///
/// The study window of the paper (2019-06-05 to 2022-03-30, inclusive of
/// both snapshots) is represented as
/// `DateRange::inclusive(start, last)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DateRange {
    start: Date,
    end: Date,
}

impl DateRange {
    /// Half-open `[start, end)` range. `end < start` is normalized to empty.
    pub fn new(start: Date, end: Date) -> DateRange {
        let end = if end < start { start } else { end };
        DateRange { start, end }
    }

    /// Closed `[start, last]` range.
    pub fn inclusive(start: Date, last: Date) -> DateRange {
        DateRange::new(start, last + 1)
    }

    /// First day in the range.
    pub fn start(&self) -> Date {
        self.start
    }

    /// One past the last day.
    pub fn end(&self) -> Date {
        self.end
    }

    /// Last day in the range; `None` when empty.
    pub fn last(&self) -> Option<Date> {
        (!self.is_empty()).then(|| self.end - 1)
    }

    /// Total version of [`DateRange::last`]: the last day of the range,
    /// or `start` itself when the range is empty. Analyses use this for
    /// a representative "end of window" day without threading the
    /// degenerate empty-window case through every computation.
    pub fn last_or_start(&self) -> Date {
        self.last().unwrap_or(self.start)
    }

    /// Number of days in the range.
    pub fn len(&self) -> usize {
        (self.end - self.start).max(0) as usize
    }

    /// True if the range contains no days.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `d` falls inside `[start, end)`.
    pub fn contains(&self, d: Date) -> bool {
        self.start <= d && d < self.end
    }

    /// Iterate over every day in the range, in order.
    pub fn iter(&self) -> impl Iterator<Item = Date> + '_ {
        (0..self.len() as i32).map(move |off| self.start + off)
    }
}

/// Days in `month` of `year`, accounting for leap years.
fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // March=0 .. February=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i32 - 719_468
}

/// Civil date for a days-since-1970-01-01 count (Hinnant's algorithm).
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).days_since_epoch(), 0);
    }

    #[test]
    fn known_dates_round_trip() {
        for &(y, m, d) in &[
            (2019, 6, 5),
            (2022, 3, 30),
            (2020, 2, 29),
            (2000, 2, 29),
            (1999, 12, 31),
            (2024, 1, 1),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.ymd(), (y, m, d));
        }
    }

    #[test]
    fn rejects_invalid_civil_days() {
        assert!(Date::try_from_ymd(2021, 2, 29).is_none());
        assert!(Date::try_from_ymd(2021, 4, 31).is_none());
        assert!(Date::try_from_ymd(2021, 0, 1).is_none());
        assert!(Date::try_from_ymd(2021, 13, 1).is_none());
        assert!(Date::try_from_ymd(2021, 1, 0).is_none());
    }

    #[test]
    fn century_leap_rules() {
        assert!(Date::try_from_ymd(2000, 2, 29).is_some());
        assert!(Date::try_from_ymd(1900, 2, 29).is_none());
    }

    #[test]
    fn arithmetic() {
        let d = Date::from_ymd(2019, 6, 5);
        assert_eq!((d + 30).to_string(), "2019-07-05");
        assert_eq!((d - 5).to_string(), "2019-05-31");
        assert_eq!(Date::from_ymd(2022, 3, 30) - d, 1029);
        assert_eq!(d.succ() - d, 1);
        assert_eq!(d.pred() - d, -1);
    }

    #[test]
    fn parse_both_forms() {
        assert_eq!(
            "2020-09-02".parse::<Date>().unwrap(),
            Date::from_ymd(2020, 9, 2)
        );
        assert_eq!(
            "20200902".parse::<Date>().unwrap(),
            Date::from_ymd(2020, 9, 2)
        );
        assert_eq!(Date::from_ymd(2020, 9, 2).to_compact_string(), "20200902");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("2020-13-02".parse::<Date>().is_err());
        assert!("2020-09".parse::<Date>().is_err());
        assert!("20200230".parse::<Date>().is_err());
        assert!("2020090".parse::<Date>().is_err());
        assert!("abcdefgh".parse::<Date>().is_err());
    }

    #[test]
    fn display_is_iso() {
        assert_eq!(Date::from_ymd(2021, 6, 23).to_string(), "2021-06-23");
    }

    #[test]
    fn range_iteration_and_membership() {
        let r = DateRange::inclusive(Date::from_ymd(2021, 1, 30), Date::from_ymd(2021, 2, 2));
        let days: Vec<String> = r.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            days,
            ["2021-01-30", "2021-01-31", "2021-02-01", "2021-02-02"]
        );
        assert_eq!(r.len(), 4);
        assert!(r.contains(Date::from_ymd(2021, 2, 1)));
        assert!(!r.contains(Date::from_ymd(2021, 2, 3)));
        assert_eq!(r.last(), Some(Date::from_ymd(2021, 2, 2)));
    }

    #[test]
    fn empty_range() {
        let d = Date::from_ymd(2021, 1, 1);
        let r = DateRange::new(d, d);
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.last(), None);
        // end-before-start normalizes to empty
        let r2 = DateRange::new(d, d - 10);
        assert!(r2.is_empty());
    }

    #[test]
    fn month_numbering() {
        assert_eq!(Month::from_number(1), Some(Month::January));
        assert_eq!(Month::from_number(12), Some(Month::December));
        assert_eq!(Month::from_number(0), None);
        assert_eq!(Month::from_number(13), None);
        assert_eq!(Month::September.number(), 9);
    }

    #[test]
    fn first_of_month() {
        assert_eq!(
            Date::from_ymd(2021, 6, 23).first_of_month(),
            Date::from_ymd(2021, 6, 1)
        );
    }

    #[test]
    fn exhaustive_round_trip_over_study_window() {
        // Every day from 2019-01-01 to 2022-12-31 must round-trip through
        // civil conversion and compact string form.
        let start = Date::from_ymd(2019, 1, 1);
        let end = Date::from_ymd(2022, 12, 31);
        let mut d = start;
        while d <= end {
            let (y, m, dd) = d.ymd();
            assert_eq!(Date::from_ymd(y, m, dd), d);
            assert_eq!(Date::parse_compact(&d.to_compact_string()).unwrap(), d);
            d = d.succ();
        }
    }
}
