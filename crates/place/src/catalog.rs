//! The extent catalog: which device holds which slice of which tenant's
//! address space, and how hot that slice currently is.
//!
//! Tenant address spaces are chopped into fixed-size *extents*; an extent
//! is the unit of placement, temperature tracking, and migration. Each
//! extent carries an ordered holder list — `holders[0]` is the primary
//! that serves writes; reads may be served by any holder. All maps are
//! `BTreeMap` so iteration order (and therefore every placement and
//! consolidation decision derived from it) is deterministic.

use std::collections::BTreeMap;

use powadapt_snap::{ById, Keyed, SnapError};

use crate::temperature::Temperature;

/// Catalog key of an extent: `(tenant index, extent index)`, where the
/// extent index is `offset / extent_bytes` within the tenant's space.
pub type ExtentKey = (u32, u64);

/// One placed extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Extent {
    /// Catalog-wide id, assigned at first write, never reused.
    pub id: u64,
    /// Owning tenant (index into the cluster's tenant list).
    pub tenant: u32,
    /// Extent index within the tenant's address space.
    pub index: u64,
    /// Flat device indices holding a replica; `holders[0]` is primary.
    pub holders: Vec<u32>,
    /// Access-temperature EWMA.
    pub temp: Temperature,
}

powadapt_snap::snapshot! {
    value Extent { id, tenant, index, holders, temp }
    after restore_holders
}

impl Extent {
    fn restore_holders(&mut self) -> Result<(), SnapError> {
        if self.holders.is_empty() {
            return Err(SnapError::InvalidValue(format!(
                "extent {} has an empty holder list",
                self.id
            )));
        }
        Ok(())
    }
}

impl Keyed for Extent {
    fn key(&self) -> u64 {
        self.id
    }
}

/// The extent catalog: extents by id, plus the key index resolving
/// `(tenant, extent index)` lookups on the IO path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentCatalog {
    /// All live extents, by id.
    extents: BTreeMap<u64, Extent>,
    /// Key index; rebuilt on restore, always consistent with `extents`.
    by_key: BTreeMap<ExtentKey, u64>,
    /// Next extent id to assign.
    next_id: u64,
}

impl ExtentCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ExtentCatalog::default()
    }

    /// Number of live extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True when no extent has been placed yet.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The extent id at `key`, if placed.
    pub fn id_at(&self, key: ExtentKey) -> Option<u64> {
        self.by_key.get(&key).copied()
    }

    /// The extent with `id`.
    pub fn get(&self, id: u64) -> Option<&Extent> {
        self.extents.get(&id)
    }

    /// Mutable access to the extent with `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Extent> {
        self.extents.get_mut(&id)
    }

    /// Inserts a freshly placed extent and returns its id. The caller has
    /// already chosen (and capacity-charged) the holder list.
    pub fn insert(&mut self, tenant: u32, index: u64, holders: Vec<u32>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.by_key.insert((tenant, index), id);
        self.extents.insert(
            id,
            Extent {
                id,
                tenant,
                index,
                holders,
                temp: Temperature::new(),
            },
        );
        id
    }

    /// Rewrites holder `from` of extent `id` to `to` (migration commit).
    /// Returns false when `id` is unknown or `from` is not a holder.
    pub fn replace_holder(&mut self, id: u64, from: u32, to: u32) -> bool {
        let Some(e) = self.extents.get_mut(&id) else {
            return false;
        };
        match e.holders.iter().position(|&h| h == from) {
            Some(i) => {
                e.holders[i] = to;
                true
            }
            None => false,
        }
    }

    /// Iterates all extents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> {
        self.extents.values()
    }
}

powadapt_snap::snapshot! {
    ExtentCatalog { next_id, extents: with(ById) }
    skip { by_key: "derived index over extents; restore_by_key rebuilds it" }
    after restore_by_key
}

impl ExtentCatalog {
    fn restore_by_key(&mut self) -> Result<(), SnapError> {
        self.by_key.clear();
        for e in self.extents.values() {
            if e.id >= self.next_id {
                return Err(SnapError::InvalidValue(format!(
                    "extent id {} is not below next_id {}",
                    e.id, self.next_id
                )));
            }
            if self.by_key.insert((e.tenant, e.index), e.id).is_some() {
                return Err(SnapError::InvalidValue(format!(
                    "duplicate extent key ({}, {})",
                    e.tenant, e.index
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "tests assert on exact expected values"
)]
mod tests {
    use super::*;
    use powadapt_snap::{Restore, SnapReader, SnapWriter, Snapshot};

    #[test]
    fn insert_and_lookup() {
        let mut c = ExtentCatalog::new();
        let id = c.insert(1, 7, vec![2, 5]);
        assert_eq!(c.id_at((1, 7)), Some(id));
        assert_eq!(c.id_at((1, 8)), None);
        assert_eq!(c.get(id).unwrap().holders, vec![2, 5]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_holder_commits_a_move() {
        let mut c = ExtentCatalog::new();
        let id = c.insert(0, 0, vec![1, 3]);
        assert!(c.replace_holder(id, 1, 9));
        assert_eq!(c.get(id).unwrap().holders, vec![9, 3]);
        assert!(!c.replace_holder(id, 1, 9));
        assert!(!c.replace_holder(id + 1, 9, 1));
    }

    #[test]
    fn snapshot_roundtrip_rebuilds_key_index() {
        let mut c = ExtentCatalog::new();
        c.insert(0, 0, vec![1]);
        let id = c.insert(2, 5, vec![0, 3]);
        c.get_mut(id).unwrap().temp.touch(3, 1.5);
        let mut w = SnapWriter::new();
        c.write_state(&mut w).unwrap();
        let payload = w.into_payload();
        let mut fresh = ExtentCatalog::new();
        let mut r = SnapReader::new(&payload);
        fresh.read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh, c);
        assert_eq!(fresh.id_at((2, 5)), Some(id));
    }

    #[test]
    fn restore_rejects_corrupt_catalogs() {
        let mut w = SnapWriter::new();
        w.u64(1); // next_id
        w.seq_len(1);
        // extent with id == next_id (out of range)
        w.u64(1);
        w.u32(0);
        w.u64(0);
        w.seq_len(1);
        w.u32(0);
        w.f64(0.0);
        w.u64(0);
        let payload = w.into_payload();
        let mut c = ExtentCatalog::new();
        let mut r = SnapReader::new(&payload);
        assert!(c.read_state(&mut r).is_err());
    }
}
