//! Series ids: what the simulated NWS conversations name a series by.
//!
//! A [`SeriesKey`] is two heap strings and a tag. Carried by value in every
//! `Store`, `WhereIs`, `FetchSince` and `Query`, it would make each event
//! the engine queues 152 bytes and every directory, store and forecaster
//! lookup a string comparison. Instead a key is resolved once, at the boundary
//! where it enters the simulation, into a dense `Copy` [`SeriesId`]:
//!
//! * deploy and retarget intern every clique member's host name into a
//!   [`HostId`] (the ring carries it), and a sensor mints the id of a
//!   `(resource, me, peer)` series from those integers when it first
//!   stores to it — not all at deploy, because a clique's series are
//!   quadratic in its size (718 members ⇒ 1.5 M series on `deploy_5k`);
//! * the query API (`NwsSystem::query`, `query_batch`) interns the keys it
//!   is asked about;
//! * WAL replay and snapshot decode intern the keys they read.
//!
//! The ids come from one [`SeriesTable`] per deployment, shared by its
//! processes through a [`SeriesTableHandle`]. Ids are numbered in
//! first-seen order, which is deterministic but is **not** key order; the
//! places whose iteration order is a contract go through
//! `SeriesTable::in_key_order` (DESIGN.md "Series ids").

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Index;
use std::rc::Rc;

use netsim::name::{FixedState, Interner};

use crate::msg::{Resource, SeriesKey};

/// Dense id of an interned host name within a [`SeriesTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(u32);

/// Dense id of a series within a [`SeriesTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`SeriesId::index`], for an index that came from one.
    pub(crate) fn from_index(i: usize) -> Self {
        SeriesId(i as u32)
    }
}

/// What a series id stands for: `(resource, src, dst)`.
type Parts = (Resource, HostId, HostId);

/// The one series table of a deployment: host names interned through
/// netsim's [`Interner`], and a dense id per `(resource, src, dst)` triple.
#[derive(Debug, Default)]
pub struct SeriesTable {
    hosts: Interner,
    /// Each host's position among all host names in name order, as of the
    /// last [`SeriesTable::in_key_order`] (recomputed when hosts were added).
    host_rank: Vec<u32>,
    ids: HashMap<Parts, SeriesId, FixedState>,
    parts: Vec<Parts>,
    /// Every id, in key order, as of the last [`SeriesTable::in_key_order`]:
    /// ids minted since sit past its end until the next call merges them.
    by_key: Rc<[SeriesId]>,
}

/// Shared handle onto a deployment's series table.
pub type SeriesTableHandle = Rc<RefCell<SeriesTable>>;

impl SeriesTable {
    /// A fresh, empty table behind a shareable handle.
    pub fn new() -> SeriesTableHandle {
        Rc::new(RefCell::new(SeriesTable::default()))
    }

    /// The id of host `name`, minted the first time it is seen.
    pub(crate) fn host(&mut self, name: &str) -> HostId {
        HostId(self.hosts.intern(name).0)
    }

    pub fn host_name(&self, host: HostId) -> &str {
        self.hosts.name(host.0)
    }

    /// The id of the `(resource, src, dst)` series, minted the first time
    /// it is seen.
    pub(crate) fn id(&mut self, resource: Resource, src: HostId, dst: HostId) -> SeriesId {
        let next = SeriesId(u32::try_from(self.parts.len()).expect("fewer than 2^32 series"));
        let id = *self.ids.entry((resource, src, dst)).or_insert(next);
        if id == next {
            self.parts.push((resource, src, dst));
        }
        id
    }

    /// The id of `key`, minted the first time it is seen.
    pub fn intern(&mut self, key: &SeriesKey) -> SeriesId {
        let (src, dst) = (self.host(&key.src), self.host(&key.dst));
        self.id(key.resource, src, dst)
    }

    /// The id of `key`, if one was minted; mints nothing.
    pub fn get(&self, key: &SeriesKey) -> Option<SeriesId> {
        let src = HostId(self.hosts.get(&key.src)?);
        let dst = HostId(self.hosts.get(&key.dst)?);
        self.ids.get(&(key.resource, src, dst)).copied()
    }

    /// The key behind an id, spelled out.
    pub fn key(&self, id: SeriesId) -> SeriesKey {
        let (resource, src, dst) = self.parts(id);
        SeriesKey {
            resource,
            src: self.host_name(src).to_string(),
            dst: self.host_name(dst).to_string(),
        }
    }

    /// The key behind an id, as its interned parts.
    pub(crate) fn parts(&self, id: SeriesId) -> Parts {
        self.parts[id.index()]
    }

    /// A series' place in [`SeriesKey`]'s order — resource, then source,
    /// then destination name — with each name as its rank.
    fn rank_key(&self, id: SeriesId) -> (Resource, u32, u32) {
        let (resource, src, dst) = self.parts(id);
        (resource, self.host_rank[src.0 as usize], self.host_rank[dst.0 as usize])
    }

    /// Every id minted so far, in key order. Names are compared once per
    /// host, to rank the hosts; ids are sorted once each, by rank: those
    /// minted since the last call among themselves, then merged in by
    /// binary search. With none new, this is an `Rc` clone.
    pub(crate) fn in_key_order(&mut self) -> Rc<[SeriesId]> {
        let sorted = self.by_key.len();
        if sorted == self.parts.len() {
            return self.by_key.clone();
        }
        if self.host_rank.len() < self.hosts.len() {
            let mut by_name: Vec<u32> = (0..self.hosts.len() as u32).collect();
            by_name.sort_unstable_by(|&a, &b| self.hosts.name(a).cmp(self.hosts.name(b)));
            self.host_rank = vec![0; by_name.len()];
            for (rank, host) in by_name.into_iter().enumerate() {
                self.host_rank[host as usize] = rank as u32;
            }
        }
        let mut fresh: Vec<SeriesId> =
            (sorted..self.parts.len()).map(SeriesId::from_index).collect();
        fresh.sort_unstable_by_key(|&id| self.rank_key(id));
        let mut merged = Vec::with_capacity(self.parts.len());
        let mut rest: &[SeriesId] = &self.by_key;
        for id in fresh {
            let key = self.rank_key(id);
            let at = rest.partition_point(|&old| self.rank_key(old) < key);
            merged.extend_from_slice(&rest[..at]);
            merged.push(id);
            rest = &rest[at..];
        }
        merged.extend_from_slice(rest);
        self.by_key = merged.into();
        self.by_key.clone()
    }
}

/// A map keyed by [`SeriesId`], stored densely: slot `i` holds id `i`'s
/// value, so a lookup is an index. Iteration is in id order, which no
/// output may depend on — a site whose order is a contract walks
/// `SeriesTable::in_key_order` and looks each id up here.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap { slots: Vec::new(), len: 0 }
    }
}

impl<V> IdMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids holding a value.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, id: SeriesId) -> Option<&V> {
        self.slots.get(id.index())?.as_ref()
    }

    pub fn get_mut(&mut self, id: SeriesId) -> Option<&mut V> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    pub(crate) fn contains(&self, id: SeriesId) -> bool {
        self.get(id).is_some()
    }

    /// The slot of `id`, grown into existence if the map is shorter.
    fn slot(&mut self, id: SeriesId) -> &mut Option<V> {
        if self.slots.len() <= id.index() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        &mut self.slots[id.index()]
    }

    /// Set `id`'s value, returning the one it replaces.
    pub(crate) fn insert(&mut self, id: SeriesId, value: V) -> Option<V> {
        let old = self.slot(id).replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    pub(crate) fn remove(&mut self, id: SeriesId) -> Option<V> {
        let old = self.slots.get_mut(id.index())?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// `id`'s value, inserting `make()` first if it has none.
    pub fn get_or_insert_with(&mut self, id: SeriesId, make: impl FnOnce() -> V) -> &mut V {
        if !self.contains(id) {
            self.insert(id, make());
        }
        self.get_mut(id).expect("inserted above")
    }

    /// The ids holding values, with their values, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SeriesId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((SeriesId::from_index(i), v.as_ref()?)))
    }

    /// The values, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }
}

impl<V> Index<SeriesId> for IdMap<V> {
    type Output = V;

    fn index(&self, id: SeriesId) -> &V {
        self.get(id).expect("no value for this series id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(src: &str, dst: &str) -> SeriesKey {
        SeriesKey::link(Resource::Bandwidth, src, dst)
    }

    #[test]
    fn ids_are_minted_once_in_first_seen_order() {
        let table = SeriesTable::new();
        let mut t = table.borrow_mut();
        let b = t.intern(&link("b.x", "a.x"));
        let a = t.intern(&link("a.x", "b.x"));
        assert_eq!((b.index(), a.index()), (0, 1));
        assert_eq!(t.intern(&link("b.x", "a.x")), b);
        let (ha, hb) = (t.host("a.x"), t.host("b.x"));
        assert_eq!(t.id(Resource::Bandwidth, ha, hb), a);
        assert_eq!(t.key(a), link("a.x", "b.x"));
        assert_eq!(t.get(&link("a.x", "b.x")), Some(a));
        assert_eq!(t.get(&link("a.x", "c.x")), None, "get mints nothing");
        assert_eq!(t.in_key_order().len(), 2);
    }

    #[test]
    fn key_order_is_series_key_order_whatever_the_minting_order() {
        // "aa" first appears in the second batch: the hosts are re-ranked.
        let mut keys = vec![SeriesKey::link(Resource::Latency, "aa", "b")];
        for r in [Resource::Latency, Resource::Bandwidth] {
            for (s, d) in [("b", "a"), ("a", "c"), ("ab", "a"), ("a", "b")] {
                keys.push(SeriesKey::link(r, s, d));
            }
        }
        keys.push(SeriesKey::host(Resource::CpuLoad, "a"));
        let table = SeriesTable::new();
        let mut t = table.borrow_mut();
        // Minted in two batches, so the second merges into the first.
        for k in keys.iter().rev().take(4) {
            t.intern(k);
        }
        assert_eq!(t.in_key_order().len(), 4);
        for k in keys.iter().rev().skip(4) {
            t.intern(k);
        }
        let got: Vec<SeriesKey> = t.in_key_order().iter().map(|&id| t.key(id)).collect();
        keys.sort();
        assert_eq!(got, keys);
    }

    #[test]
    fn id_map_counts_and_grows() {
        let table = SeriesTable::new();
        let mut t = table.borrow_mut();
        let ids: Vec<SeriesId> = (0..5).map(|i| t.intern(&link(&format!("h{i}"), "d"))).collect();
        let mut m = IdMap::new();
        assert_eq!(m.insert(ids[3], "three"), None);
        assert_eq!(*m.get_or_insert_with(ids[1], || "one"), "one");
        assert_eq!(*m.get_or_insert_with(ids[1], || "uno"), "one");
        assert_eq!(m.insert(ids[3], "THREE"), Some("three"));
        assert_eq!((m.len(), m.get(ids[4]), m[ids[3]]), (2, None, "THREE"));
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![ids[1], ids[3]]);
        assert_eq!(m.remove(ids[1]), Some("one"));
        assert_eq!(m.remove(ids[1]), None);
        assert_eq!((m.len(), m.values().count(), m.contains(ids[3])), (1, 1, true));
    }
}
