//! Scatter-gather verbs (Fig. 1, §4.2).
//!
//! Scatter and gather let clients operate on disjoint buffers in one
//! operation, without explicit management by application or system
//! software. Four variants exist depending on (a) read vs write and
//! (b) whether the disjoint buffers live at the client or in far memory:
//!
//! * [`rscatter`](FabricClient::rscatter) — read a far *range*, scatter it
//!   into local disjoint buffers;
//! * [`rgather`](FabricClient::rgather) — read a far *iovec* (disjoint far
//!   buffers), gather into one local range;
//! * [`wscatter`](FabricClient::wscatter) — write a far *iovec* from one
//!   local range;
//! * [`wgather`](FabricClient::wgather) — write a far *range* by gathering
//!   local disjoint buffers.
//!
//! Where the disjoint side is in far memory, the client-side adapter
//! issues the per-buffer messages *concurrently* (§4.2), so the whole verb
//! costs one dependent round trip; each far buffer is still a separate
//! fabric message, and all messages and bytes are accounted.

use crate::addr::FarAddr;
use crate::check::AccessKind;
use crate::client::FabricClient;
use crate::error::{FabricError, Result};
use crate::trace::VerbKind;

/// One entry of a far-memory iovec: a disjoint far buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarIov {
    /// Start of the buffer.
    pub addr: FarAddr,
    /// Length in bytes.
    pub len: u64,
}

impl FarIov {
    /// Convenience constructor.
    pub fn new(addr: FarAddr, len: u64) -> FarIov {
        FarIov { addr, len }
    }
}

fn check_iov(iov: &[FarIov]) -> Result<u64> {
    if iov.is_empty() {
        return Err(FabricError::BadIovec { reason: "iovec must be non-empty" });
    }
    let mut total = 0u64;
    for e in iov {
        if e.len == 0 {
            return Err(FabricError::BadIovec { reason: "iovec entries must be non-empty" });
        }
        total += e.len;
    }
    Ok(total)
}

impl FabricClient {
    /// `rscatter(ad, ℓ, iovec)`: read the far range `[ad, ad+ℓ)` and
    /// scatter it into the local buffers `into` (whose total length must
    /// equal `ℓ`). One far access.
    pub fn rscatter(&mut self, ad: FarAddr, into: &mut [&mut [u8]]) -> Result<()> {
        if into.is_empty() {
            return Err(FabricError::BadIovec { reason: "iovec must be non-empty" });
        }
        let total: u64 = into.iter().map(|b| b.len() as u64).sum();
        let data =
            self.round_trip(VerbKind::ScatterGather, |c, at| c.exec_read(AccessKind::Read, ad, total, at))?;
        let mut done = 0usize;
        for buf in into.iter_mut() {
            buf.copy_from_slice(&data[done..done + buf.len()]);
            done += buf.len();
        }
        Ok(())
    }

    /// `rgather(iovec, ad, ℓ)`: read the disjoint far buffers of `iov` and
    /// gather them into one local buffer, returned in iovec order. The
    /// per-buffer messages are issued concurrently: one far access. A
    /// malformed iovec is rejected before any attempt is charged.
    pub fn rgather(&mut self, iov: &[FarIov]) -> Result<Vec<u8>> {
        let total = check_iov(iov)?;
        self.round_trip(VerbKind::ScatterGather, |c, at| {
            let mut out = vec![0u8; total as usize];
            let (mut finish, mut rest) = (at, out.as_mut_slice());
            for e in iov {
                let (part, tail) = rest.split_at_mut(e.len as usize);
                finish = finish.max(c.exec_read_into(AccessKind::Read, e.addr, part, at)?);
                rest = tail;
            }
            Ok::<_, FabricError>((out, finish))
        })
    }

    /// `wscatter(ad, ℓ, iovec)`: scatter one local range `src` across the
    /// disjoint far buffers of `iov` (total iovec length must equal
    /// `src.len()`, checked before any attempt is charged). One far access.
    pub fn wscatter(&mut self, iov: &[FarIov], src: &[u8]) -> Result<()> {
        if check_iov(iov)? != src.len() as u64 {
            return Err(FabricError::BadIovec {
                reason: "iovec total length must equal the source length",
            });
        }
        self.round_trip(VerbKind::ScatterGather, |c, at| {
            let (mut finish, mut rest) = (at, src);
            for e in iov {
                let (part, tail) = rest.split_at(e.len as usize);
                finish = finish.max(c.exec_write(e.addr, part, at)?);
                rest = tail;
            }
            Ok::<_, FabricError>(((), finish))
        })
    }

    /// `wgather(iovec, ad, ℓ)`: gather local disjoint buffers `from` into
    /// the far range starting at `ad`. One far access (single message when
    /// the range maps to one node).
    pub fn wgather(&mut self, ad: FarAddr, from: &[&[u8]]) -> Result<()> {
        if from.is_empty() {
            return Err(FabricError::BadIovec { reason: "iovec must be non-empty" });
        }
        let mut data = Vec::with_capacity(from.iter().map(|b| b.len()).sum());
        for b in from {
            data.extend_from_slice(b);
        }
        self.round_trip(VerbKind::ScatterGather, |c, at| {
            c.exec_write(ad, &data, at).map(|f| ((), f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    fn client() -> FabricClient {
        FabricConfig::count_only(1 << 20).build().client()
    }

    #[test]
    fn rscatter_splits_a_far_range() {
        let mut c = client();
        let data: Vec<u8> = (0..32).collect();
        c.write(FarAddr(4096), &data).unwrap();
        let mut a = [0u8; 8];
        let mut b = [0u8; 24];
        let before = c.stats();
        c.rscatter(FarAddr(4096), &mut [&mut a, &mut b]).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(&a, &data[..8]);
        assert_eq!(&b, &data[8..]);
    }

    #[test]
    fn rgather_reads_disjoint_far_buffers_in_one_rt() {
        let mut c = client();
        c.write_u64(FarAddr(4096), 1).unwrap();
        c.write_u64(FarAddr(8192), 2).unwrap();
        c.write_u64(FarAddr(12288), 3).unwrap();
        let before = c.stats();
        let got = c
            .rgather(&[
                FarIov::new(FarAddr(4096), 8),
                FarIov::new(FarAddr(8192), 8),
                FarIov::new(FarAddr(12288), 8),
            ])
            .unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "concurrent gather is one far access");
        assert_eq!(d.messages, 3, "but three fabric messages");
        assert_eq!(got.len(), 24);
        assert_eq!(u64::from_le_bytes(got[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(got[16..24].try_into().unwrap()), 3);
    }

    #[test]
    fn wscatter_writes_disjoint_far_buffers_in_one_rt() {
        let mut c = client();
        let mut src = Vec::new();
        src.extend_from_slice(&7u64.to_le_bytes());
        src.extend_from_slice(&8u64.to_le_bytes());
        let before = c.stats();
        c.wscatter(
            &[FarIov::new(FarAddr(4096), 8), FarIov::new(FarAddr(8192), 8)],
            &src,
        )
        .unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(c.read_u64(FarAddr(4096)).unwrap(), 7);
        assert_eq!(c.read_u64(FarAddr(8192)).unwrap(), 8);
    }

    #[test]
    fn wgather_concatenates_local_buffers() {
        let mut c = client();
        c.wgather(FarAddr(4096), &[&1u64.to_le_bytes(), &2u64.to_le_bytes()])
            .unwrap();
        assert_eq!(c.read_u64(FarAddr(4096)).unwrap(), 1);
        assert_eq!(c.read_u64(FarAddr(4104)).unwrap(), 2);
    }

    #[test]
    fn empty_and_mismatched_iovecs_rejected() {
        let mut c = client();
        assert!(c.rgather(&[]).is_err());
        assert!(c.wscatter(&[FarIov::new(FarAddr(4096), 8)], &[0u8; 4]).is_err());
        assert!(c
            .rgather(&[FarIov::new(FarAddr(4096), 0)])
            .is_err());
    }

    #[test]
    fn emulation_costs_k_round_trips_by_contrast() {
        // The same three reads issued dependently cost three far accesses;
        // this is exactly what rgather saves (E1).
        let mut c = client();
        let before = c.stats();
        for addr in [4096u64, 8192, 12288] {
            c.read(FarAddr(addr), 8).unwrap();
        }
        assert_eq!(c.stats().since(&before).round_trips, 3);
    }
}
