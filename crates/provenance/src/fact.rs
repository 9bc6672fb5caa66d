//! Input fact identifiers and the registry of input-fact metadata.

use std::fmt;
use std::sync::{Arc, RwLock};

/// Identifies an extensional (input) fact within a single run of a program.
///
/// Fact ids are dense: the `n`-th probabilistic fact registered with the
/// runtime receives id `n`. They are the variables of the boolean formulas
/// tracked by proof-based provenances and the indices of the gradient vector
/// returned by differentiable provenances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InputFactId(pub u32);

impl fmt::Display for InputFactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Probability of each input fact (1.0 for non-probabilistic facts).
    probs: Vec<f64>,
    /// Optional mutual-exclusion group of each fact. Two distinct facts in
    /// the same group can never co-occur in a single proof (e.g. the ten
    /// possible classifications of one handwritten digit).
    exclusions: Vec<Option<u32>>,
}

/// A shared, append-only registry of input facts.
///
/// The registry records the probability and optional mutual-exclusion group
/// of every input fact. Proof-based provenances consult it to detect
/// conflicting proofs; differentiable provenances consult it to convert a
/// proof into a gradient.
///
/// Cloning the registry is cheap (it is internally reference counted) and the
/// clone observes subsequently registered facts.
#[derive(Debug, Clone, Default)]
pub struct InputFactRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

impl InputFactRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new input fact and returns its id.
    pub fn register(&self, prob: Option<f64>, exclusion: Option<u32>) -> InputFactId {
        let mut inner = self.inner.write().expect("fact registry poisoned");
        let id = InputFactId(inner.probs.len() as u32);
        inner.probs.push(prob.unwrap_or(1.0));
        inner.exclusions.push(exclusion);
        id
    }

    /// Number of facts registered so far.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("fact registry poisoned")
            .probs
            .len()
    }

    /// `true` when no facts have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The probability of a fact, or `1.0` if the id is unknown.
    pub fn prob(&self, fact: InputFactId) -> f64 {
        self.inner
            .read()
            .expect("fact registry poisoned")
            .probs
            .get(fact.0 as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Overwrites the probability of an already registered fact.
    ///
    /// Used between training iterations when the neural network produces new
    /// probabilities for the same facts.
    pub fn set_prob(&self, fact: InputFactId, prob: f64) {
        let mut inner = self.inner.write().expect("fact registry poisoned");
        if let Some(slot) = inner.probs.get_mut(fact.0 as usize) {
            *slot = prob;
        }
    }

    /// The mutual-exclusion group of a fact, if any.
    pub fn exclusion(&self, fact: InputFactId) -> Option<u32> {
        self.inner
            .read()
            .expect("fact registry poisoned")
            .exclusions
            .get(fact.0 as usize)
            .copied()
            .flatten()
    }

    /// Creates an *independent* copy of the registry: the fork starts with
    /// the same facts and probabilities, but facts registered (or
    /// probabilities updated) afterwards are not shared in either direction.
    ///
    /// This is how a batched run scopes the facts of its samples: ids already
    /// issued by the parent registry stay valid in the fork, while the
    /// per-sample facts the run registers on top never leak back into the
    /// parent. (Contrast with [`Clone`], which shares state.)
    pub fn fork(&self) -> InputFactRegistry {
        let inner = self.inner.read().expect("fact registry poisoned");
        InputFactRegistry {
            inner: Arc::new(RwLock::new(RegistryInner {
                probs: inner.probs.clone(),
                exclusions: inner.exclusions.clone(),
            })),
        }
    }

    /// Removes every registered fact. Used when re-running a program on a
    /// fresh sample.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("fact registry poisoned");
        inner.probs.clear();
        inner.exclusions.clear();
    }

    /// Drops every fact with id `len` or above, keeping the first `len`
    /// registrations (and the backing allocations) intact. `Session::reset`
    /// uses this to return a recycled session to its freshly-opened state
    /// without reallocating the registry.
    pub fn truncate(&self, len: usize) {
        let mut inner = self.inner.write().expect("fact registry poisoned");
        inner.probs.truncate(len);
        inner.exclusions.truncate(len);
    }

    /// Overwrites this registry's contents with a fork of `parent` — the
    /// same observable state [`InputFactRegistry::fork`] produces, but
    /// written into `self`'s existing allocations instead of fresh ones.
    ///
    /// Batched execution forks the session registry once per run; reforking
    /// into a recycled scratch registry makes that per-run cost a memcpy
    /// instead of two heap allocations (plus the lock/arc setup).
    pub fn refork_from(&self, parent: &InputFactRegistry) {
        if Arc::ptr_eq(&self.inner, &parent.inner) {
            // Reforking a registry from itself (or a clone sharing its
            // state) is a no-op — and taking both locks would deadlock.
            return;
        }
        let parent = parent.inner.read().expect("fact registry poisoned");
        let mut inner = self.inner.write().expect("fact registry poisoned");
        inner.probs.clear();
        inner.probs.extend_from_slice(&parent.probs);
        inner.exclusions.clear();
        inner.exclusions.extend_from_slice(&parent.exclusions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_dense_ids() {
        let reg = InputFactRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register(Some(0.25), None);
        let b = reg.register(None, Some(7));
        assert_eq!(a, InputFactId(0));
        assert_eq!(b, InputFactId(1));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn prob_defaults_to_one() {
        let reg = InputFactRegistry::new();
        let a = reg.register(None, None);
        assert_eq!(reg.prob(a), 1.0);
        assert_eq!(reg.prob(InputFactId(99)), 1.0);
    }

    #[test]
    fn set_prob_updates_existing_fact() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.5), None);
        reg.set_prob(a, 0.9);
        assert_eq!(reg.prob(a), 0.9);
    }

    #[test]
    fn exclusion_groups_are_tracked() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.5), Some(3));
        let b = reg.register(Some(0.5), None);
        assert_eq!(reg.exclusion(a), Some(3));
        assert_eq!(reg.exclusion(b), None);
    }

    #[test]
    fn forks_are_independent() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.4), None);
        let fork = reg.fork();
        // The fork sees facts registered before the fork point...
        assert_eq!(fork.prob(a), 0.4);
        // ...but registrations and updates after it are not shared.
        let b = fork.register(Some(0.9), Some(3));
        assert_eq!(reg.len(), 1);
        assert_eq!(fork.len(), 2);
        assert_eq!(fork.exclusion(b), Some(3));
        fork.set_prob(a, 0.1);
        assert_eq!(reg.prob(a), 0.4);
    }

    #[test]
    fn truncate_keeps_the_leading_facts() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.4), Some(1));
        let b = reg.register(Some(0.9), None);
        reg.truncate(1);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.prob(a), 0.4);
        assert_eq!(reg.exclusion(a), Some(1));
        // The truncated fact is gone: its id reads as unknown.
        assert_eq!(reg.prob(b), 1.0);
        // Re-registering reuses the freed id.
        assert_eq!(reg.register(Some(0.7), None), b);
    }

    #[test]
    fn refork_from_matches_fork_and_reuses_the_target() {
        let parent = InputFactRegistry::new();
        let a = parent.register(Some(0.4), Some(2));
        let scratch = InputFactRegistry::new();
        // Dirty the scratch so stale state would be visible if kept.
        scratch.register(Some(0.123), Some(9));
        scratch.register(Some(0.456), None);
        scratch.refork_from(&parent);
        assert_eq!(scratch.len(), 1);
        assert_eq!(scratch.prob(a), 0.4);
        assert_eq!(scratch.exclusion(a), Some(2));
        // Like a fork, later changes are not shared in either direction.
        let b = scratch.register(Some(0.9), None);
        assert_eq!(parent.len(), 1);
        scratch.set_prob(a, 0.1);
        assert_eq!(parent.prob(a), 0.4);
        assert_eq!(scratch.exclusion(b), None);
    }

    #[test]
    fn refork_from_self_is_a_noop() {
        let reg = InputFactRegistry::new();
        let a = reg.register(Some(0.4), None);
        reg.refork_from(&reg.clone());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.prob(a), 0.4);
    }

    #[test]
    fn clones_share_state() {
        let reg = InputFactRegistry::new();
        let clone = reg.clone();
        let a = reg.register(Some(0.4), None);
        assert_eq!(clone.prob(a), 0.4);
        clone.clear();
        assert!(reg.is_empty());
    }
}
