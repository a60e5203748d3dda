//! The shared snapshot-file codec: one stable binary format for both
//! injection layers, persisted next to a campaign checkpoint so `--resume`
//! skips the capture runs.
//!
//! Format version 1 (all integers little-endian):
//!
//! ```text
//!   magic [u8; 8] | version u32 | content_hash u64
//!   mem_size u64 | stack_size u64            (base image is rebuilt, not stored)
//!   cadence tag u8 + value u64 | shared_snaps u64
//!   golden result | first-entry option | snapshot count u64
//!   per snapshot: dyn_insts u64 | fault_sites u64 | layer state | page DELTA
//!   fnv1a-64 checksum over everything above
//! ```
//!
//! The magic, the golden result, the first-entry table and the layer state
//! belong to the layer ([`SnapLayer`]); everything else — the primitive
//! writers, the length-checked [`Cursor`], the checksum envelope, the
//! status codes and the page-overlay deltas — is defined once here.
//!
//! Page overlays are cumulative and `Arc`-shared across snapshots, so each
//! snapshot stores only the pages whose `Arc` differs from the predecessor's
//! entry; the loader rebuilds each overlay as `prev.clone()` plus the delta,
//! which round-trips the sharing structure without duplicating pages.
//!
//! Loading never panics on bad input: the checksum is verified before any
//! parsing, and every length/index is validated against the program.

use crate::hash::fnv1a;
use crate::interp::memory::{Memory, PageMap, TrapKind, GLOBAL_BASE};
use crate::interp::snapshot::{Cadence, SnapLayer, Snapshot, SnapshotSet};
use crate::interp::ExecStatus;
use std::sync::Arc;

/// The on-disk format version both layers write and accept.
const VERSION: u32 = 1;

// ---- writer helpers -------------------------------------------------------

pub fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed byte string.
pub fn put_bytes(w: &mut Vec<u8>, b: &[u8]) {
    put_u64(w, b.len() as u64);
    w.extend_from_slice(b);
}

/// Length-prefixed word array.
pub fn put_u64s(w: &mut Vec<u8>, vs: &[u64]) {
    put_u64(w, vs.len() as u64);
    for &v in vs {
        put_u64(w, v);
    }
}

/// Option tag `0`, or tag `1` followed by `put`'s encoding of the value.
pub fn put_opt<T>(w: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => w.push(0),
        Some(v) => {
            w.push(1);
            put(w, v);
        }
    }
}

pub fn put_status(w: &mut Vec<u8>, s: ExecStatus) {
    match s {
        ExecStatus::Completed(v) => {
            w.push(0);
            put_u64(w, v);
        }
        ExecStatus::Detected => w.push(1),
        ExecStatus::Trapped(t) => {
            w.push(2);
            w.push(t.code());
        }
    }
}

/// Append the trailing checksum that [`unseal`] verifies.
fn seal(w: &mut Vec<u8>) {
    let c = fnv1a(w);
    put_u64(w, c);
}

/// Verify and strip the trailing checksum, returning the body.
fn unseal(bytes: &[u8]) -> Result<&[u8], String> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err("snapshot file: truncated".into());
    };
    let (body, tail) = bytes.split_at(split);
    if fnv1a(body) != u64::from_le_bytes(tail.try_into().unwrap()) {
        return Err("snapshot file: checksum mismatch (corrupt or truncated)".into());
    }
    Ok(body)
}

// ---- reader ---------------------------------------------------------------

/// A length-checked reader over a file body: every read is bounds-checked
/// and returns a descriptive error instead of panicking.
pub struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(b: &'a [u8]) -> Cursor<'a> {
        Cursor { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.b.len() - self.pos < n {
            return Err("snapshot file: truncated".into());
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count of items that each occupy at least `elem` bytes — bounds the
    /// allocation a corrupt length field could otherwise trigger.
    pub fn count(&mut self, elem: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let remaining = (self.b.len() - self.pos) as u64;
        if n.saturating_mul(elem as u64) > remaining {
            return Err("snapshot file: length field exceeds file size".into());
        }
        Ok(n as usize)
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads what [`put_opt`] wrote; `what` names the field in errors.
    pub fn opt<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            t => Err(format!("snapshot file: bad {what} tag {t}")),
        }
    }

    pub fn status(&mut self) -> Result<ExecStatus, String> {
        Ok(match self.u8()? {
            0 => ExecStatus::Completed(self.u64()?),
            1 => ExecStatus::Detected,
            2 => {
                let c = self.u8()?;
                let t = TrapKind::from_code(c).ok_or_else(|| format!("snapshot file: unknown trap kind {c}"))?;
                ExecStatus::Trapped(t)
            }
            t => return Err(format!("snapshot file: bad status tag {t}")),
        })
    }
}

// ---- page overlays ----------------------------------------------------------

/// Encode the pages of `pages` whose `Arc` is new relative to `prev`
/// (overlays only grow), in page order.
fn put_page_delta(w: &mut Vec<u8>, prev: Option<&PageMap>, pages: &PageMap) {
    debug_assert!(prev.is_none_or(|p| p.keys().all(|k| pages.contains_key(k))));
    let mut delta: Vec<(u32, &Arc<[u8]>)> = pages
        .iter()
        .filter(|(k, v)| prev.and_then(|p| p.get(k)).is_none_or(|pv| !Arc::ptr_eq(pv, v)))
        .map(|(k, v)| (*k, v))
        .collect();
    delta.sort_unstable_by_key(|(k, _)| *k);
    put_u64(w, delta.len() as u64);
    for (k, v) in delta {
        put_u32(w, k);
        put_u32(w, v.len() as u32);
        w.extend_from_slice(v);
    }
}

/// Decode one delta on top of `prev`, validating every page against `base`.
fn read_page_delta(c: &mut Cursor, base: &Memory, prev: &PageMap) -> Result<PageMap, String> {
    let n = c.count(8)?;
    let mut pages = prev.clone();
    for _ in 0..n {
        let page = c.u32()?;
        let len = c.u32()? as usize;
        if page >= base.page_count() || len != base.page_slice(page).len() {
            return Err("snapshot file: bad page record".into());
        }
        pages.insert(page, Arc::from(c.take(len)?));
    }
    Ok(pages)
}

// ---- whole sets ---------------------------------------------------------------

impl<L: SnapLayer> SnapshotSet<L> {
    /// Serialize to the stable on-disk format. `content_hash` identifies
    /// the program this set was captured from; the loader refuses a file
    /// whose hash does not match.
    pub fn to_bytes(&self, content_hash: u64) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(L::MAGIC);
        put_u32(&mut w, VERSION);
        put_u64(&mut w, content_hash);
        put_u64(&mut w, self.base.size());
        put_u64(&mut w, self.base.size() - self.base.stack_limit());
        let (tag, k) = match self.cadence {
            Cadence::Insts(k) => (0, k),
            Cadence::Sites(k) => (1, k),
        };
        w.push(tag);
        put_u64(&mut w, k);
        put_u64(&mut w, self.shared_snaps as u64);
        L::put_golden(&mut w, &self.golden);
        put_opt(&mut w, self.entry.as_ref(), L::put_entry);
        put_u64(&mut w, self.snaps.len() as u64);
        let mut prev: Option<&PageMap> = None;
        for s in &self.snaps {
            put_u64(&mut w, s.dyn_insts);
            put_u64(&mut w, s.fault_sites);
            L::put_state(&mut w, &s.state);
            put_page_delta(&mut w, prev, &s.pages);
            prev = Some(&s.pages);
        }
        seal(&mut w);
        w
    }

    /// Deserialize a set previously written by [`SnapshotSet::to_bytes`]
    /// for the same program. Rejects corrupt, truncated, version-
    /// mismatched, or wrong-content files with a descriptive error — never
    /// panics.
    pub fn from_bytes(bytes: &[u8], ctx: L::Ctx<'_>, content_hash: u64) -> Result<SnapshotSet<L>, String> {
        let body = unseal(bytes)?;
        let mut c = Cursor::new(body);
        if c.take(L::MAGIC.len())? != L::MAGIC {
            let want = String::from_utf8_lossy(L::MAGIC);
            return Err(format!("snapshot file: bad magic (not a {want} snapshot set)"));
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(format!("snapshot file: unsupported format version {version} (expected {VERSION})"));
        }
        if c.u64()? != content_hash {
            return Err("snapshot file: content hash mismatch".into());
        }
        let mem_size = c.u64()?;
        let stack_size = c.u64()?;
        if stack_size > mem_size || mem_size < GLOBAL_BASE + stack_size + 0x1000 {
            return Err("snapshot file: implausible memory geometry".into());
        }
        let cadence = match c.u8()? {
            0 => Cadence::Insts(c.u64()?),
            1 => Cadence::Sites(c.u64()?),
            t => return Err(format!("snapshot file: bad cadence tag {t}")),
        };
        if cadence.value() == 0 {
            return Err("snapshot file: zero cadence".into());
        }
        let shared_snaps = c.u64()? as usize;
        let golden = L::read_golden(&mut c, ctx)?;
        let entry = c.opt("first-entry", |c| L::read_entry(c, ctx))?;
        let base = Memory::new(L::module(ctx), mem_size, stack_size);
        let n_snaps = c.count(8)?;
        let mut snaps: Vec<Snapshot<L>> = Vec::with_capacity(n_snaps);
        let empty = PageMap::new();
        for _ in 0..n_snaps {
            let dyn_insts = c.u64()?;
            let fault_sites = c.u64()?;
            let state = L::read_state(&mut c, ctx, &golden)?;
            let prev = snaps.last().map_or(&empty, |s| &s.pages);
            let pages = read_page_delta(&mut c, &base, prev)?;
            snaps.push(Snapshot { dyn_insts, fault_sites, pages, state });
        }
        if c.pos != body.len() {
            return Err("snapshot file: trailing garbage".into());
        }
        if shared_snaps > snaps.len() {
            return Err("snapshot file: shared_snaps exceeds snapshot count".into());
        }
        Ok(SnapshotSet { base, golden, cadence, snaps, entry, shared_snaps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_envelope_rejects_every_flip_and_truncation() {
        let mut sealed: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37)).collect();
        seal(&mut sealed);
        let body_len = sealed.len() - 8;
        assert_eq!(unseal(&sealed).unwrap(), &sealed[..body_len]);
        let mut bad = sealed.clone();
        for i in 0..bad.len() {
            for bit in 0..8 {
                bad[i] ^= 1 << bit;
                assert!(unseal(&bad).is_err(), "flip of bit {bit} at byte {i} must be rejected");
                bad[i] ^= 1 << bit;
            }
        }
        for len in 0..sealed.len() {
            assert!(unseal(&sealed[..len]).is_err(), "truncation to {len} bytes must be rejected");
        }
    }

    #[test]
    fn status_codes_round_trip() {
        let mut all = vec![ExecStatus::Completed(u64::MAX - 3), ExecStatus::Detected];
        all.extend(TrapKind::ALL.map(ExecStatus::Trapped));
        let mut w = Vec::new();
        for &s in &all {
            put_status(&mut w, s);
        }
        let mut c = Cursor::new(&w);
        for &s in &all {
            assert_eq!(c.status().unwrap(), s);
        }
        assert_eq!(c.pos, w.len());
        assert!(Cursor::new(&[2, 8]).status().unwrap_err().contains("unknown trap kind 8"));
        assert!(Cursor::new(&[3]).status().unwrap_err().contains("bad status tag 3"));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        let mut w = Vec::new();
        put_u64(&mut w, 3);
        w.extend_from_slice(&[0; 23]);
        assert!(Cursor::new(&w).count(8).unwrap_err().contains("exceeds file size"));
        assert_eq!(Cursor::new(&w[..]).count(7).unwrap(), 3);
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Cursor::new(&huge).u64s().is_err());
    }
}
