//! The persistent weight-balanced tree core of the Bonsai tree (Clements
//! et al., ASPLOS 2012; non-blocking variant as benchmarked by the paper).
//!
//! Every update **path-copies**: it builds a new version of the root-to-key
//! path (rebalancing with Adams-style rotations), shares every untouched
//! subtree, and publishes the new root with a single CAS. The scheme
//! families differ only in how dereferences are protected and how replaced
//! nodes are retired, so the version-building machinery lives here once,
//! parameterized by a [`Protector`] (`bonsai.rs` has the three).
//!
//! The [`Builder`] records two sets during a build: `fresh` (nodes
//! allocated for the new version — freed wholesale if the root CAS loses)
//! and `replaced` (old nodes whose contents were copied — garbage once the
//! CAS wins).

use std::marker::PhantomData;
use std::sync::atomic::Ordering::Relaxed;

use smr_common::{Atomic, Shared};

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

/// The protection failed; the whole operation must restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart;

/// One reclamation family's way of running a Bonsai operation: what the
/// per-family copies of the tree differed in.
pub trait Protector<K, V> {
    /// Per-thread state, the tree's `Handle`.
    type Handle: Send;
    /// An operation in progress on the tree whose root link it borrows.
    type Op<'a>
    where
        K: 'a,
        V: 'a;

    /// Registers the calling thread.
    fn handle() -> Self::Handle;

    /// Starts an operation on the tree rooted at `root`.
    fn enter<'a>(handle: &'a mut Self::Handle, root: &'a Atomic<Node<K, V>>) -> Self::Op<'a>;

    /// Takes the root snapshot an attempt works on: the current root,
    /// protected. Whatever earlier attempts protected is let go.
    fn snapshot(op: &mut Self::Op<'_>) -> Shared<Node<K, V>>;

    /// Makes `node` safe to dereference. `src` is the (already protected)
    /// node whose field `node` was read from. `false` aborts the attempt.
    fn protect(op: &mut Self::Op<'_>, node: Shared<Node<K, V>>, src: Shared<Node<K, V>>) -> bool;

    /// Publishes a version built from the snapshot `root0`: swings the root
    /// to `new_root` and, if that wins, hands `replaced` to the scheme.
    ///
    /// # Safety
    /// `new_root` heads a version built from `root0` that shares every node
    /// it did not copy, and `replaced` are exactly the copied ones.
    unsafe fn publish(
        op: &mut Self::Op<'_>,
        root0: Shared<Node<K, V>>,
        new_root: Shared<Node<K, V>>,
        replaced: &[Shared<Node<K, V>>],
    ) -> bool;

    /// Ends the operation: nothing it protected may be dereferenced
    /// afterwards.
    fn release(op: Self::Op<'_>);
}

/// Tracks allocations and replacements during one version build.
pub struct Builder<K, V, P> {
    /// Nodes allocated for the new version.
    pub fresh: Vec<Shared<Node<K, V>>>,
    /// Old nodes whose contents were copied into the new version.
    pub replaced: Vec<Shared<Node<K, V>>>,
    _family: PhantomData<fn() -> P>,
}

impl<K, V, P> Default for Builder<K, V, P> {
    fn default() -> Self {
        Self {
            fresh: Vec::new(),
            replaced: Vec::new(),
            _family: PhantomData,
        }
    }
}

type Parts<K, V> = (Shared<Node<K, V>>, K, V, Shared<Node<K, V>>);
/// `remove`'s result: the rebuilt subtree root and the removed value.
type Removed<K, V> = Option<(Shared<Node<K, V>>, V)>;
/// An edge extraction: the rebuilt subtree plus the extracted key/value.
type Extracted<K, V> = (Shared<Node<K, V>>, K, V);

impl<K: Clone + Ord, V: Clone, P: Protector<K, V>> Builder<K, V, P> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
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
            if !child.is_null() && !P::protect(p, child, t) {
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
    use super::*;

    /// A family over trees the test owns: protects nothing, and fails the
    /// protection after the count in its handle runs out.
    struct FailAfter;

    impl Protector<u64, u64> for FailAfter {
        type Handle = usize;
        type Op<'a> = &'a mut usize;

        fn handle() -> usize {
            usize::MAX
        }

        fn enter<'a>(left: &'a mut usize, _root: &'a Atomic<Node<u64, u64>>) -> &'a mut usize {
            left
        }

        fn snapshot(_: &mut &mut usize) -> Shared<Node<u64, u64>> {
            unreachable!("builds start from roots the test owns")
        }

        fn protect(
            left: &mut &mut usize,
            _node: Shared<Node<u64, u64>>,
            _src: Shared<Node<u64, u64>>,
        ) -> bool {
            left.checked_sub(1).map(|rest| **left = rest).is_some()
        }

        unsafe fn publish(
            _: &mut &mut usize,
            _root0: Shared<Node<u64, u64>>,
            _new_root: Shared<Node<u64, u64>>,
            _replaced: &[Shared<Node<u64, u64>>],
        ) -> bool {
            unreachable!("nothing is published")
        }

        fn release(_: &mut usize) {}
    }

    type Builder = super::Builder<u64, u64, FailAfter>;

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
        let mut root: Shared<Node<u64, u64>> = Shared::null();
        let mut garbage: Vec<Shared<Node<u64, u64>>> = Vec::new();

        for i in 0..256u64 {
            let key = (i * 167) % 256;
            let mut b = Builder::new();
            let new_root = b
                .insert(&mut &mut FailAfter::handle(), root, &key, &(key * 10))
                .unwrap()
                .expect("fresh key");
            garbage.extend(b.replaced);
            root = new_root;
            check_invariants(root, None, None);
        }
        assert_eq!(size_of(root), 256);

        for key in (1..256u64).step_by(2) {
            let mut b = Builder::new();
            let (new_root, v) = b
                .remove(&mut &mut FailAfter::handle(), root, &key)
                .unwrap()
                .expect("present");
            assert_eq!(v, key * 10);
            garbage.extend(b.replaced);
            root = new_root;
            check_invariants(root, None, None);
        }
        assert_eq!(size_of(root), 128);

        let mut b = Builder::new();
        assert!(b
            .remove(&mut &mut FailAfter::handle(), root, &1)
            .unwrap()
            .is_none());
        b.abort();

        for g in garbage {
            unsafe { g.drop_owned() };
        }
        unsafe { free_tree(root) };
    }

    #[test]
    fn duplicate_insert_builds_nothing_permanent() {
        let mut b = Builder::new();
        let root = b
            .insert(&mut &mut FailAfter::handle(), Shared::null(), &5u64, &50u64)
            .unwrap()
            .unwrap();
        assert_eq!(b.fresh.len(), 1);

        let mut b2 = Builder::new();
        assert!(b2
            .insert(&mut &mut FailAfter::handle(), root, &5, &50)
            .unwrap()
            .is_none());
        b2.abort();
        unsafe { root.drop_owned() };
    }

    #[test]
    fn restarting_protector_aborts_cleanly() {
        // Build a small tree first.
        let mut root: Shared<Node<u64, u64>> = Shared::null();
        for key in 0..32u64 {
            let mut b = Builder::new();
            root = b
                .insert(&mut &mut FailAfter::handle(), root, &key, &key)
                .unwrap()
                .unwrap();
            for g in b.replaced {
                unsafe { g.drop_owned() };
            }
        }
        // Now fail protection partway through an insert; abort must free
        // all fresh nodes (no leak, no double free — exercised under the
        // test allocator by simply running).
        let mut b = Builder::new();
        let res = b.insert(&mut &mut 3, root, &100, &100);
        assert_eq!(res, Err(Restart));
        b.abort();
        unsafe { free_tree(root) };
    }
}
