//! Order-independent digests of relation contents, the CSPA output oracle.
//!
//! A relation's digest is its tuple count plus the wrapping sum of a 64-bit
//! hash of every tuple, so two engines that derive the same set in any order
//! agree, and a one-tuple change moves the count or the sum.

use lobster::RunResult;
use std::collections::BTreeMap;
use std::fmt;

/// Digest of one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelationDigest {
    /// Number of tuples.
    pub count: u64,
    /// Wrapping sum of the tuple hashes.
    pub hash: u64,
}

impl RelationDigest {
    /// Adds one tuple, given as its encoded device words.
    pub fn add(&mut self, row: &[u64]) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(row_hash(row));
    }
}

impl fmt::Display for RelationDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:016x}", self.count, self.hash)
    }
}

/// Digests of every relation of interest, by name.
pub type Digest = BTreeMap<String, RelationDigest>;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one tuple; position-sensitive, so `(a, b)` and `(b, a)` differ.
fn row_hash(row: &[u64]) -> u64 {
    row.iter().fold(mix(row.len() as u64), |acc, &word| {
        mix(acc.rotate_left(23) ^ word.wrapping_add(0x9e37_79b9_7f4a_7c15))
    })
}

/// Digest of the queried relations of a Lobster result.
pub fn of_result(result: &RunResult) -> Digest {
    result
        .relations()
        .into_iter()
        .map(|name| {
            let mut digest = RelationDigest::default();
            for (tuple, _) in result.relation(name) {
                let row: Vec<u64> = tuple.iter().map(lobster::Value::encode).collect();
                digest.add(&row);
            }
            (name.to_string(), digest)
        })
        .collect()
}

/// Digest of the named relations of an encoded-rows database (the shape the
/// baseline engines return).
pub fn of_rows(db: &BTreeMap<String, Vec<Vec<u64>>>, relations: &[String]) -> Digest {
    relations
        .iter()
        .map(|name| {
            let mut digest = RelationDigest::default();
            for row in db.get(name).map(Vec::as_slice).unwrap_or_default() {
                digest.add(row);
            }
            (name.clone(), digest)
        })
        .collect()
}

/// The first relation on which two digests disagree, as a readable line.
pub fn first_difference(expected: &Digest, actual: &Digest) -> Option<String> {
    let names: std::collections::BTreeSet<&String> = expected.keys().chain(actual.keys()).collect();
    names.into_iter().find_map(|name| {
        let (want, got) = (expected.get(name), actual.get(name));
        (want != got).then(|| {
            let show =
                |d: Option<&RelationDigest>| d.map_or("absent".to_string(), |d| d.to_string());
            format!("{name}: expected {}, got {}", show(want), show(got))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(rows: &[(u64, u64)]) -> BTreeMap<String, Vec<Vec<u64>>> {
        let mut db = BTreeMap::new();
        db.insert(
            "r".to_string(),
            rows.iter().map(|&(a, b)| vec![a, b]).collect(),
        );
        db
    }

    #[test]
    fn digest_ignores_order() {
        let names = ["r".to_string()];
        let a = of_rows(&db(&[(1, 2), (3, 4), (5, 6)]), &names);
        let b = of_rows(&db(&[(5, 6), (1, 2), (3, 4)]), &names);
        assert_eq!(a, b);
        assert_eq!(a["r"].count, 3);
        assert_eq!(first_difference(&a, &b), None);
    }

    #[test]
    fn digest_catches_a_one_tuple_change() {
        let names = ["r".to_string()];
        let base = of_rows(&db(&[(1, 2), (3, 4), (5, 6)]), &names);
        // One value of one tuple changed: same count, different sum.
        let changed = of_rows(&db(&[(1, 2), (3, 4), (5, 7)]), &names);
        assert_eq!(base["r"].count, changed["r"].count);
        assert_ne!(base, changed);
        // Columns swapped within one tuple.
        let swapped = of_rows(&db(&[(2, 1), (3, 4), (5, 6)]), &names);
        assert_ne!(base, swapped);
        // One tuple dropped or added.
        assert_ne!(base, of_rows(&db(&[(1, 2), (3, 4)]), &names));
        assert_ne!(
            base,
            of_rows(&db(&[(1, 2), (3, 4), (5, 6), (7, 8)]), &names)
        );
        let line = first_difference(&base, &changed).expect("differs");
        assert!(line.starts_with("r: expected 3 "), "{line}");
    }

    #[test]
    fn lobster_and_row_digests_agree() {
        use lobster::{Lobster, Unit, Value};
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<Unit>()
        .expect("compiles");
        let mut session = program.session();
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            session
                .add_fact("edge", &[Value::U32(a), Value::U32(b)], None)
                .expect("fact fits");
        }
        let result = session.run().expect("runs");
        let mut rows = BTreeMap::new();
        rows.insert(
            "path".to_string(),
            vec![
                vec![2, 3],
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
            ],
        );
        assert_eq!(of_result(&result), of_rows(&rows, &["path".to_string()]));
    }
}
