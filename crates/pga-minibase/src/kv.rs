//! The cell model: HBase-style `(row, qualifier, timestamp) → value`.

use bytes::Bytes;
use std::cmp::Ordering;

/// One cell. The implicit column family is OpenTSDB's single `t` family.
///
/// Ordering matches HBase: row ascending, qualifier ascending, timestamp
/// **descending** (newest first), so a scan naturally yields the most
/// recent version of a cell first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyValue {
    /// Row key (binary; for TSDB rows: salt + metric UID + base time + tags).
    pub row: Bytes,
    /// Column qualifier (for TSDB: encoded offset-in-row + flags).
    pub qualifier: Bytes,
    /// Version timestamp in milliseconds.
    pub timestamp: u64,
    /// Cell payload.
    pub value: Bytes,
}

impl KeyValue {
    /// Construct a cell from anything byte-like.
    pub fn new(
        row: impl Into<Bytes>,
        qualifier: impl Into<Bytes>,
        timestamp: u64,
        value: impl Into<Bytes>,
    ) -> Self {
        KeyValue {
            row: row.into(),
            qualifier: qualifier.into(),
            timestamp,
            value: value.into(),
        }
    }

    /// Approximate heap footprint, used for memstore flush accounting.
    pub fn heap_size(&self) -> usize {
        self.row.len() + self.qualifier.len() + self.value.len() + 8 + 3 * 16
    }

    /// The sort key of this cell (excludes the value).
    pub fn cell_key(&self) -> (&[u8], &[u8], std::cmp::Reverse<u64>) {
        (
            &self.row,
            &self.qualifier,
            std::cmp::Reverse(self.timestamp),
        )
    }
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.row
            .cmp(&other.row)
            .then_with(|| self.qualifier.cmp(&other.qualifier))
            .then_with(|| other.timestamp.cmp(&self.timestamp))
    }
}

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A half-open row range `[start, end)`; an empty `end` means unbounded
/// (HBase's convention for the last region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRange {
    /// Inclusive start row; empty = from the beginning.
    pub start: Bytes,
    /// Exclusive end row; empty = to the end.
    pub end: Bytes,
}

impl RowRange {
    /// The full table.
    pub fn all() -> Self {
        RowRange {
            start: Bytes::new(),
            end: Bytes::new(),
        }
    }

    /// Range `[start, end)`.
    pub fn new(start: impl Into<Bytes>, end: impl Into<Bytes>) -> Self {
        RowRange {
            start: start.into(),
            end: end.into(),
        }
    }

    /// Does `row` fall inside this range?
    #[inline]
    pub fn contains(&self, row: &[u8]) -> bool {
        (self.start.is_empty() || row >= &self.start[..])
            && (self.end.is_empty() || row < &self.end[..])
    }

    /// Does the range hold no rows at all? True when a non-empty start
    /// sits at or past a non-empty end, as in an inverted range.
    pub fn is_empty(&self) -> bool {
        !self.start.is_empty() && !self.end.is_empty() && self.start >= self.end
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &RowRange) -> bool {
        let starts_before_other_ends =
            other.end.is_empty() || self.start.is_empty() || self.start < other.end;
        let other_starts_before_self_ends =
            self.end.is_empty() || other.start.is_empty() || other.start < self.end;
        starts_before_other_ends && other_starts_before_self_ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(row: &str, qual: &str, ts: u64) -> KeyValue {
        KeyValue::new(
            row.as_bytes().to_vec(),
            qual.as_bytes().to_vec(),
            ts,
            vec![],
        )
    }

    #[test]
    fn ordering_is_row_qual_then_newest_first() {
        let a = kv("a", "q", 5);
        let b = kv("a", "q", 9);
        let c = kv("a", "r", 1);
        let d = kv("b", "a", 1);
        // Same row+qual: newer timestamp sorts first.
        assert!(b < a);
        // Qualifier breaks ties after row.
        assert!(a < c);
        // Row dominates.
        assert!(c < d);
    }

    #[test]
    fn range_contains_half_open() {
        let r = RowRange::new(b"b".to_vec(), b"d".to_vec());
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
    }

    #[test]
    fn unbounded_range_contains_everything() {
        let r = RowRange::all();
        assert!(r.contains(b""));
        assert!(r.contains(b"\xff\xff"));
    }

    #[test]
    fn last_region_style_range() {
        let r = RowRange::new(b"m".to_vec(), Bytes::new());
        assert!(!r.contains(b"l"));
        assert!(r.contains(b"m"));
        assert!(r.contains(b"\xff"));
    }

    #[test]
    fn overlap_detection() {
        let ab = RowRange::new(b"a".to_vec(), b"b".to_vec());
        let bc = RowRange::new(b"b".to_vec(), b"c".to_vec());
        let ac = RowRange::new(b"a".to_vec(), b"c".to_vec());
        assert!(
            !ab.overlaps(&bc),
            "half-open ranges do not overlap at the boundary"
        );
        assert!(ab.overlaps(&ac));
        assert!(ac.overlaps(&bc));
        assert!(RowRange::all().overlaps(&ab));
    }

    #[test]
    fn heap_size_tracks_payload() {
        let small = kv("r", "q", 0);
        let big = KeyValue::new(vec![0u8; 100], vec![0u8; 100], 0, vec![0u8; 1000]);
        assert!(big.heap_size() > small.heap_size() + 1000);
    }
}
