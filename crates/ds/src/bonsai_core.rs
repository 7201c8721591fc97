//! The persistent weight-balanced tree core of the Bonsai tree (Clements
//! et al., ASPLOS 2012; non-blocking variant as benchmarked by the paper).
//!
//! Every update **path-copies**: it builds a new version of the root-to-key
//! path (rebalancing with Adams-style rotations), shares every untouched
//! subtree, and publishes the new root with a single CAS. The families
//! differ only in how a step is protected ([`Protect::protect_by`], with
//! the attempt's root snapshot as the witness) and how the copied nodes
//! are handed over ([`Protect::unlink`]), so the version-building
//! machinery lives here once, over any [`Protect`].
//!
//! The [`Builder`] records two sets during a build: `fresh` (nodes
//! allocated for the new version — freed wholesale if the root CAS loses)
//! and `replaced` (old nodes whose contents were copied — garbage once the
//! CAS wins).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use smr_common::tagged::TAG_INVALIDATED;
use smr_common::{Atomic, Shared};

use crate::protect::{self, Protect};

/// Weight-balance factor (Adams' delta).
const DELTA: usize = 3;
/// Single-vs-double rotation ratio (Adams' ratio).
const RATIO: usize = 2;

/// An (immutable once published) Bonsai node.
pub struct Node<K, V> {
    /// Left child. Atomic only so HP++ invalidation can tag it; the
    /// pointer part never changes after publication.
    pub left: Atomic<Node<K, V>>,
    /// Right child (same discipline as `left`).
    pub right: Atomic<Node<K, V>>,
    /// Subtree size (for weight balancing).
    pub size: usize,
    /// Key.
    pub key: K,
    /// Value.
    pub value: V,
}

/// Size of a possibly-null subtree. The caller must have protected `t`.
pub fn size_of<K, V>(t: Shared<Node<K, V>>) -> usize {
    if t.is_null() {
        0
    } else {
        unsafe { t.deref() }.size
    }
}

/// Frees the whole subtree under `t` (a tree being dropped).
///
/// # Safety
/// The caller owns every node reachable from `t`; none was handed to a
/// reclamation scheme.
pub unsafe fn free_tree<K, V>(t: Shared<Node<K, V>>) {
    if t.is_null() {
        return;
    }
    // SAFETY: per the contract, for the node and both subtrees.
    unsafe {
        let node = t.deref();
        free_tree(node.left.load(Relaxed).with_tag(0));
        free_tree(node.right.load(Relaxed).with_tag(0));
        t.drop_owned();
    }
}

// SAFETY: sets the bit `is_invalid` reads, in the node's own links.
unsafe impl<K, V> protect::Invalidate for Node<K, V> {
    unsafe fn invalidate(ptr: *mut Self) {
        // SAFETY: the caller passes a live, unlinked node.
        let node = unsafe { &*ptr };
        // Published links are immutable, so plain RMW-free stores would
        // suffice; fetch_or keeps it simple and race-proof.
        node.left.fetch_or_tag(TAG_INVALIDATED, AcqRel);
        node.right.fetch_or_tag(TAG_INVALIDATED, AcqRel);
    }
}

impl<K, V> protect::Node for Node<K, V> {
    const INVALID_TAG: usize = TAG_INVALIDATED;

    fn is_invalid(&self) -> bool {
        self.left.load(Acquire).tag() & TAG_INVALIDATED != 0
    }
}

/// The protection failed; the whole operation must restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart;

/// One attempt at an operation: the root link, the snapshot of it the
/// attempt works on, and the last hazard slot it used — one per node it
/// protects, since a build keeps every node it read until publication.
pub struct Attempt<'r, K, V> {
    root: &'r Atomic<Node<K, V>>,
    /// The protected root snapshot.
    pub root0: Shared<Node<K, V>>,
    slot: usize,
}

impl<'r, K, V> Attempt<'r, K, V> {
    /// Takes the snapshot of `root` under slot 0; `None` if that
    /// protection failed and the attempt must start again.
    pub fn start<P: Protect>(op: &mut P::Op<'_>, root: &'r Atomic<Node<K, V>>) -> Option<Self> {
        let mut root0 = root.load(Acquire);
        P::protect(op, 0, &mut root0, root).then_some(Self {
            root,
            root0,
            slot: 0,
        })
    }

    /// Makes `child`, read out of the protected `src`, safe to dereference
    /// under the next slot. The family picks what vouches for it: that the
    /// root is still this attempt's snapshot (HP: any update may have
    /// retired any copied node), or that `src` is not invalidated (HP++).
    /// `false` aborts the attempt.
    pub fn protect<P: Protect>(
        &mut self,
        op: &mut P::Op<'_>,
        child: Shared<Node<K, V>>,
        src: Shared<Node<K, V>>,
    ) -> bool {
        if child.is_null() {
            return true;
        }
        self.slot += 1;
        let (root, root0) = (self.root, self.root0);
        P::protect_by(op, self.slot, child, src, || root.load(Acquire) == root0)
    }
}

/// The frontier of a publication (§3.1): the children of replaced nodes
/// that are not themselves replaced, the shared subtrees. The paper notes
/// Bonsai can skip frontier protection; it is passed anyway — O(path)
/// announcements per update — to keep the generic safety argument intact
/// (see DESIGN.md). Only HP++ builds it.
pub fn frontier<K, V>(replaced: &[Shared<Node<K, V>>]) -> Vec<Shared<Node<K, V>>> {
    let mut frontier = Vec::new();
    for &r in replaced {
        // SAFETY: the build protected every node it replaced.
        let node = unsafe { r.deref() };
        for child in [&node.left, &node.right] {
            let child = child.load(Relaxed).with_tag(0);
            if !child.is_null() && !replaced.contains(&child) {
                frontier.push(child);
            }
        }
    }
    frontier
}

/// Tracks allocations and replacements during one version build.
pub struct Builder<'r, K, V, P> {
    /// The attempt whose snapshot the build copies.
    pub at: Attempt<'r, K, V>,
    /// Nodes allocated for the new version.
    pub fresh: Vec<Shared<Node<K, V>>>,
    /// Old nodes whose contents were copied into the new version.
    pub replaced: Vec<Shared<Node<K, V>>>,
    _family: PhantomData<fn() -> P>,
}

type Parts<K, V> = (Shared<Node<K, V>>, K, V, Shared<Node<K, V>>);
/// `remove`'s result: the rebuilt subtree root and the removed value.
type Removed<K, V> = Option<(Shared<Node<K, V>>, V)>;
/// An edge extraction: the rebuilt subtree plus the extracted key/value.
type Extracted<K, V> = (Shared<Node<K, V>>, K, V);

impl<'r, K: Clone + Ord, V: Clone, P: Protect> Builder<'r, K, V, P> {
    /// Creates an empty builder for `at`.
    pub fn new(at: Attempt<'r, K, V>) -> Self {
        Self {
            at,
            fresh: Vec::new(),
            replaced: Vec::new(),
            _family: PhantomData,
        }
    }

    fn mk(
        &mut self,
        left: Shared<Node<K, V>>,
        key: K,
        value: V,
        right: Shared<Node<K, V>>,
    ) -> Shared<Node<K, V>> {
        let node = Shared::from_owned(Node {
            left: Atomic::from(left),
            right: Atomic::from(right),
            size: 1 + size_of(left) + size_of(right),
            key,
            value,
        });
        self.fresh.push(node);
        node
    }

    /// Reads out a protected node's fields, protecting both children.
    fn read_parts(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
    ) -> Result<Parts<K, V>, Restart> {
        let node = unsafe { t.deref() };
        let l = node.left.load(Relaxed).with_tag(0);
        let r = node.right.load(Relaxed).with_tag(0);
        for child in [l, r] {
            if !self.at.protect::<P>(p, child, t) {
                return Err(Restart);
            }
        }
        Ok((l, node.key.clone(), node.value.clone(), r))
    }

    /// Takes a node apart for restructuring. A *fresh* node is simply
    /// deallocated (it was never published); an *old* node is recorded as
    /// replaced.
    fn destructure(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
    ) -> Result<Parts<K, V>, Restart> {
        let parts = self.read_parts(p, t)?;
        if let Some(pos) = self.fresh.iter().position(|f| *f == t) {
            self.fresh.swap_remove(pos);
            unsafe { t.drop_owned() };
        } else {
            self.replaced.push(t);
        }
        Ok(parts)
    }

    /// Records `t` as copied-and-replaced and returns its fields.
    fn replace(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
    ) -> Result<Parts<K, V>, Restart> {
        let parts = self.read_parts(p, t)?;
        self.replaced.push(t);
        Ok(parts)
    }

    /// Adams' join: rebuilds a node from parts, rotating if one side became
    /// too heavy. `l`/`r` are protected (fresh or shared-old) subtrees.
    fn balance(
        &mut self,
        p: &mut P::Op<'_>,
        l: Shared<Node<K, V>>,
        key: K,
        value: V,
        r: Shared<Node<K, V>>,
    ) -> Result<Shared<Node<K, V>>, Restart> {
        let (ls, rs) = (size_of(l), size_of(r));
        if ls + rs <= 1 {
            return Ok(self.mk(l, key, value, r));
        }
        if rs > DELTA * ls {
            // Right too heavy.
            let (rl, rk, rv, rr) = self.destructure(p, r)?;
            if size_of(rl) < RATIO * size_of(rr) {
                // Single left rotation.
                let inner = self.balance(p, l, key, value, rl)?;
                return Ok(self.mk(inner, rk, rv, rr));
            }
            // Double rotation.
            let (rll, rlk, rlv, rlr) = self.destructure(p, rl)?;
            let a = self.balance(p, l, key, value, rll)?;
            let b = self.balance(p, rlr, rk, rv, rr)?;
            return Ok(self.mk(a, rlk, rlv, b));
        }
        if ls > DELTA * rs {
            // Left too heavy (mirror image).
            let (ll, lk, lv, lr) = self.destructure(p, l)?;
            if size_of(lr) < RATIO * size_of(ll) {
                let inner = self.balance(p, lr, key, value, r)?;
                return Ok(self.mk(ll, lk, lv, inner));
            }
            let (lrl, lrk, lrv, lrr) = self.destructure(p, lr)?;
            let a = self.balance(p, ll, lk, lv, lrl)?;
            let b = self.balance(p, lrr, key, value, r)?;
            return Ok(self.mk(a, lrk, lrv, b));
        }
        Ok(self.mk(l, key, value, r))
    }

    /// Builds the insert version. `Ok(None)` if the key already exists.
    /// `t` must be protected by the caller.
    pub fn insert(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
        key: &K,
        value: &V,
    ) -> Result<Option<Shared<Node<K, V>>>, Restart> {
        if t.is_null() {
            return Ok(Some(self.mk(
                Shared::null(),
                key.clone(),
                value.clone(),
                Shared::null(),
            )));
        }
        let node = unsafe { t.deref() };
        match key.cmp(&node.key) {
            std::cmp::Ordering::Equal => Ok(None),
            std::cmp::Ordering::Less => {
                let (l, k, v, r) = self.replace(p, t)?;
                match self.insert(p, l, key, value)? {
                    Some(l2) => Ok(Some(self.balance(p, l2, k, v, r)?)),
                    None => Ok(None),
                }
            }
            std::cmp::Ordering::Greater => {
                let (l, k, v, r) = self.replace(p, t)?;
                match self.insert(p, r, key, value)? {
                    Some(r2) => Ok(Some(self.balance(p, l, k, v, r2)?)),
                    None => Ok(None),
                }
            }
        }
    }

    /// Builds the remove version. `Ok(None)` if the key is absent.
    /// `t` must be protected by the caller.
    pub fn remove(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
        key: &K,
    ) -> Result<Removed<K, V>, Restart> {
        if t.is_null() {
            return Ok(None);
        }
        let node = unsafe { t.deref() };
        match key.cmp(&node.key) {
            std::cmp::Ordering::Less => {
                let (l, k, v, r) = self.replace(p, t)?;
                match self.remove(p, l, key)? {
                    Some((l2, out)) => Ok(Some((self.balance(p, l2, k, v, r)?, out))),
                    None => {
                        self.replaced.pop(); // undo the speculative replace
                        Ok(None)
                    }
                }
            }
            std::cmp::Ordering::Greater => {
                let (l, k, v, r) = self.replace(p, t)?;
                match self.remove(p, r, key)? {
                    Some((r2, out)) => Ok(Some((self.balance(p, l, k, v, r2)?, out))),
                    None => {
                        self.replaced.pop();
                        Ok(None)
                    }
                }
            }
            std::cmp::Ordering::Equal => {
                let (l, _, v, r) = self.replace(p, t)?;
                Ok(Some((self.glue(p, l, r)?, v)))
            }
        }
    }

    /// Joins two sibling subtrees after their parent's removal.
    fn glue(
        &mut self,
        p: &mut P::Op<'_>,
        l: Shared<Node<K, V>>,
        r: Shared<Node<K, V>>,
    ) -> Result<Shared<Node<K, V>>, Restart> {
        if l.is_null() {
            return Ok(r);
        }
        if r.is_null() {
            return Ok(l);
        }
        if size_of(l) > size_of(r) {
            let (l2, k, v) = self.extract_max(p, l)?;
            self.balance(p, l2, k, v, r)
        } else {
            let (r2, k, v) = self.extract_min(p, r)?;
            self.balance(p, l, k, v, r2)
        }
    }

    fn extract_min(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
    ) -> Result<Extracted<K, V>, Restart> {
        let (l, k, v, r) = self.destructure(p, t)?;
        if l.is_null() {
            Ok((r, k, v))
        } else {
            let (l2, mk_, mv) = self.extract_min(p, l)?;
            Ok((self.balance(p, l2, k, v, r)?, mk_, mv))
        }
    }

    fn extract_max(
        &mut self,
        p: &mut P::Op<'_>,
        t: Shared<Node<K, V>>,
    ) -> Result<Extracted<K, V>, Restart> {
        let (l, k, v, r) = self.destructure(p, t)?;
        if r.is_null() {
            Ok((l, k, v))
        } else {
            let (r2, mk_, mv) = self.extract_max(p, r)?;
            Ok((self.balance(p, l, k, v, r2)?, mk_, mv))
        }
    }

    /// Frees every fresh node (the CAS lost or the build restarted;
    /// nothing was published).
    pub fn abort(self) {
        for f in self.fresh {
            unsafe { f.drop_owned() };
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use crate::protect::{Guarded, Hpp, Invalidate};

    /// A family under which no protection fails: an EBR critical section
    /// is never ejected.
    type Pinned = Guarded<ebr::Ebr>;

    /// A builder over the tree `link` leads to, which the test owns.
    fn builder<P: Protect, V: Clone>(link: &Atomic<Node<u64, V>>) -> Builder<'_, u64, V, P> {
        let root0 = link.load(Relaxed);
        Builder::new(Attempt {
            root: link,
            root0,
            slot: 0,
        })
    }

    fn check_invariants<K: Ord, V>(t: Shared<Node<K, V>>, lo: Option<&K>, hi: Option<&K>) -> usize {
        if t.is_null() {
            return 0;
        }
        let n = unsafe { t.deref() };
        if let Some(lo) = lo {
            assert!(*lo < n.key, "BST order violated");
        }
        if let Some(hi) = hi {
            assert!(n.key < *hi, "BST order violated");
        }
        let l = n.left.load(Relaxed).with_tag(0);
        let r = n.right.load(Relaxed).with_tag(0);
        let ls = check_invariants(l, lo, Some(&n.key));
        let rs = check_invariants(r, Some(&n.key), hi);
        assert_eq!(n.size, 1 + ls + rs, "size field wrong");
        if ls + rs > 1 {
            assert!(ls <= DELTA * rs + 1, "left too heavy: {ls} vs {rs}");
            assert!(rs <= DELTA * ls + 1, "right too heavy: {ls} vs {rs}");
        }
        1 + ls + rs
    }

    #[test]
    fn insert_remove_roundtrip_stays_balanced() {
        let mut h = Pinned::handle(());
        let mut op = Pinned::enter(&mut h);
        let root = Atomic::null();
        let mut garbage: Vec<Shared<Node<u64, u64>>> = Vec::new();

        for i in 0..256u64 {
            let key = (i * 167) % 256;
            let mut b = builder::<Pinned, _>(&root);
            let new_root = b
                .insert(&mut op, b.at.root0, &key, &(key * 10))
                .unwrap()
                .expect("fresh key");
            garbage.extend(b.replaced);
            root.store(new_root, Relaxed);
            check_invariants(new_root, None, None);
        }
        assert_eq!(size_of(root.load(Relaxed)), 256);

        for key in (1..256u64).step_by(2) {
            let mut b = builder::<Pinned, _>(&root);
            let (new_root, v) = b
                .remove(&mut op, b.at.root0, &key)
                .unwrap()
                .expect("present");
            assert_eq!(v, key * 10);
            garbage.extend(b.replaced);
            root.store(new_root, Relaxed);
            check_invariants(new_root, None, None);
        }
        assert_eq!(size_of(root.load(Relaxed)), 128);

        let mut b = builder::<Pinned, _>(&root);
        assert!(b.remove(&mut op, b.at.root0, &1).unwrap().is_none());
        b.abort();

        Pinned::exit(op);
        for g in garbage {
            unsafe { g.drop_owned() };
        }
        unsafe { free_tree(root.load(Relaxed)) };
    }

    #[test]
    fn duplicate_insert_builds_nothing_permanent() {
        let mut h = Pinned::handle(());
        let mut op = Pinned::enter(&mut h);
        let empty = Atomic::null();
        let mut b = builder::<Pinned, _>(&empty);
        let root = b
            .insert(&mut op, Shared::null(), &5u64, &50u64)
            .unwrap()
            .unwrap();
        assert_eq!(b.fresh.len(), 1);

        let mut b2 = builder::<Pinned, _>(&empty);
        assert!(b2.insert(&mut op, root, &5, &50).unwrap().is_none());
        b2.abort();
        Pinned::exit(op);
        unsafe { root.drop_owned() };
    }

    /// Counts the drops of its instances.
    #[derive(Clone)]
    struct Counted;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Relaxed);
        }
    }

    fn node(
        left: Shared<Node<u64, Counted>>,
        key: u64,
        right: Shared<Node<u64, Counted>>,
    ) -> Shared<Node<u64, Counted>> {
        Shared::from_owned(Node {
            left: Atomic::from(left),
            right: Atomic::from(right),
            size: 1 + size_of(left) + size_of(right),
            key,
            value: Counted,
        })
    }

    #[test]
    fn restarting_protection_aborts_cleanly() {
        let leaf = |key| node(Shared::null(), key, Shared::null());
        // Inserting 5 leaves `20` too heavy for `70`: the double rotation
        // takes `inner` apart, an old node, after the build made fresh ones.
        let inner = node(leaf(30), 40, node(Shared::null(), 50, leaf(60)));
        let root = node(
            node(leaf(10), 20, inner),
            70,
            node(Shared::null(), 90, leaf(95)),
        );
        check_invariants(root, None, None);
        // Under HP++ a protection out of an invalidated node fails, so the
        // build fails there, in the middle.
        unsafe { Node::invalidate(inner.as_raw()) };
        let link = Atomic::from(root);
        let mut h = Hpp::<0>::handle(Hpp::<0>::default_domain());
        let mut op = Hpp::<0>::enter(&mut h);
        let mut b = builder::<Hpp<0>, _>(&link);
        let res = b.insert(&mut op, root, &5, &Counted);
        assert_eq!(res, Err(Restart));
        let fresh = b.fresh.len();
        assert!(
            fresh > 0,
            "the protection failed before the build made a node"
        );
        // Abort must free every fresh node, and only those.
        let before = DROPS.load(Relaxed);
        b.abort();
        assert_eq!(DROPS.load(Relaxed) - before, fresh);
        Hpp::<0>::exit(op);
        unsafe { free_tree(root) };
    }
}
