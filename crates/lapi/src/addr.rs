//! Simulated per-node address spaces.
//!
//! On the real SP, LAPI operations name raw virtual addresses in the target
//! process. Our nodes are threads of one host process, so raw pointers would
//! neither be safe nor faithful (every thread could touch every "remote"
//! address directly). Instead each node owns an [`AddressSpace`] — a
//! bump-allocated range of byte addresses — and remote memory is named by
//! [`Addr`] offsets into the *target's* range. Exactly like real addresses,
//! an `Addr` is only meaningful on the node it was allocated on, and programs
//! exchange them with `LAPI_Address_init` before use.
//!
//! Memory is demand-zero, like the AIX process it stands in for: the range
//! is cut into fixed [`PAGE_SIZE`] pages, `alloc` only reserves addresses,
//! the first write to a page commits it (zeroed), and a read of a page that
//! was never written returns zeros without committing it. A node that
//! reserves a large buffer pool but never touches it (GA's AM pool, §5.3.1)
//! therefore costs the host nothing beyond its page-table entries.

use std::fmt;
use std::ops::Range;

/// Bytes per demand-zero page of an [`AddressSpace`].
pub const PAGE_SIZE: usize = 64 * 1024;

/// An address within some node's [`AddressSpace`].
///
/// Plain data: addresses travel inside message headers, exactly like the
/// 64-bit virtual addresses in real LAPI packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Address `off` bytes past `self`.
    #[inline]
    pub fn offset(self, off: usize) -> Addr {
        Addr(self.0 + off as u64)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A node's memory: a bump allocator over demand-zero pages.
///
/// All bounds violations panic — they correspond to wild stores through a
/// bad address in the real system, which is a program bug, not a
/// recoverable condition. Bounds are checked against the allocation break,
/// not against page edges.
#[derive(Default)]
pub struct AddressSpace {
    /// One entry per page below the break; `None` until first written.
    pages: Vec<Option<Box<[u8]>>>,
    brk: usize,
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("brk", &self.brk)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Split `range` into per-page pieces: `(page, offset in page, length)`.
fn pieces(range: Range<usize>) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut pos = range.start;
    std::iter::from_fn(move || {
        (pos < range.end).then(|| {
            let (page, off) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
            let len = (PAGE_SIZE - off).min(range.end - pos);
            pos += len;
            (page, off, len)
        })
    })
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` bytes, 8-byte aligned, zero-initialized. Only the
    /// address range is reserved; pages commit on first write.
    pub fn alloc(&mut self, len: usize) -> Addr {
        let start = (self.brk + 7) & !7;
        let end = start
            .checked_add(len)
            .unwrap_or_else(|| panic!("address overflow at {:?}+{len}", Addr(start as u64)));
        self.pages.resize_with(end.div_ceil(PAGE_SIZE), || None);
        self.brk = end;
        Addr(start as u64)
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> usize {
        self.brk
    }

    /// Host bytes committed: pages written at least once × [`PAGE_SIZE`].
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE_SIZE
    }

    fn range(&self, addr: Addr, len: usize) -> Range<usize> {
        let start = addr.0 as usize;
        let end = start
            .checked_add(len)
            .unwrap_or_else(|| panic!("address overflow at {addr:?}+{len}"));
        assert!(
            end <= self.brk,
            "out-of-bounds access: {addr:?}+{len} exceeds allocated {} bytes",
            self.brk
        );
        start..end
    }

    /// Copy `out.len()` bytes starting from `addr` into `out`. Pages never
    /// written read as zeros and stay uncommitted.
    pub fn read_into(&self, addr: Addr, out: &mut [u8]) {
        let mut done = 0;
        for (page, off, len) in pieces(self.range(addr, out.len())) {
            let dst = &mut out[done..done + len];
            match &self.pages[page] {
                Some(p) => dst.copy_from_slice(&p[off..off + len]),
                None => dst.fill(0),
            }
            done += len;
        }
    }

    /// Write `data` starting at `addr`, committing untouched pages.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let mut done = 0;
        for (page, off, len) in pieces(self.range(addr, data.len())) {
            let p = self.pages[page].get_or_insert_with(|| vec![0; PAGE_SIZE].into_boxed_slice());
            p[off..off + len].copy_from_slice(&data[done..done + len]);
            done += len;
        }
    }

    /// Read one little-endian u64 cell.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write one little-endian u64 cell.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read `n` f64 values starting at `addr`.
    pub fn read_f64s(&self, addr: Addr, n: usize) -> Vec<f64> {
        let mut bytes = vec![0; n * 8];
        self.read_into(addr, &mut bytes);
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect()
    }

    /// Write f64 values starting at `addr`.
    pub fn write_f64s(&mut self, addr: Addr, vals: &[f64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(addr, &bytes);
    }

    /// Apply a read-modify-write on the u64 cell at `addr`, returning the
    /// previous value. Callers must hold the arena lock for atomicity (the
    /// engine does).
    pub fn rmw_u64(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> u64 {
        let prev = self.read_u64(addr);
        self.write_u64(addr, f(prev));
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn read(a: &AddressSpace, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0xAA; len];
        a.read_into(addr, &mut out);
        out
    }

    #[test]
    fn alloc_is_aligned_and_zeroed() {
        let mut a = AddressSpace::new();
        let p = a.alloc(3);
        let q = a.alloc(8);
        assert_eq!(p.0 % 8, 0);
        assert_eq!(q.0 % 8, 0);
        assert!(q.0 >= p.0 + 3);
        assert_eq!(read(&a, q, 8), [0u8; 8]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = AddressSpace::new();
        let p = a.alloc(16);
        a.write(p, b"hello world!!!!!");
        assert_eq!(read(&a, p, 5), b"hello");
        assert_eq!(read(&a, p.offset(6), 5), b"world");
    }

    #[test]
    fn u64_cells() {
        let mut a = AddressSpace::new();
        let p = a.alloc(8);
        a.write_u64(p, 0xdead_beef);
        assert_eq!(a.read_u64(p), 0xdead_beef);
        let prev = a.rmw_u64(p, |v| v + 1);
        assert_eq!(prev, 0xdead_beef);
        assert_eq!(a.read_u64(p), 0xdead_bef0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut a = AddressSpace::new();
        let p = a.alloc(4 * 8);
        a.write_f64s(p, &[1.5, -2.5, 3.25, 0.0]);
        assert_eq!(a.read_f64s(p, 4), vec![1.5, -2.5, 3.25, 0.0]);
        assert_eq!(a.read_f64s(p.offset(8), 2), vec![-2.5, 3.25]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn oob_read_panics() {
        let mut a = AddressSpace::new();
        let p = a.alloc(8);
        let _ = read(&a, p, 9);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn unallocated_access_panics() {
        let a = AddressSpace::new();
        let _ = read(&a, Addr(0), 1);
    }

    #[test]
    fn grows_on_demand() {
        let mut a = AddressSpace::new();
        let p = a.alloc(10_000);
        let q = a.alloc(100_000);
        a.write(p, &vec![7u8; 10_000]);
        a.write(q, &vec![9u8; 100_000]);
        assert_eq!(read(&a, q, 3), [9, 9, 9]);
        assert_eq!(read(&a, q.offset(99_997), 3), [9, 9, 9]);
        assert!(a.allocated() >= 110_000);
    }

    #[test]
    fn untouched_pages_read_zero_and_stay_uncommitted() {
        let mut a = AddressSpace::new();
        let p = a.alloc(4 * PAGE_SIZE);
        assert_eq!(a.resident_bytes(), 0, "alloc commits nothing");
        assert!(read(&a, p, 4 * PAGE_SIZE).iter().all(|&b| b == 0));
        assert_eq!(a.read_u64(p.offset(3 * PAGE_SIZE)), 0);
        assert_eq!(a.resident_bytes(), 0, "reads commit nothing");
        a.write(p.offset(2 * PAGE_SIZE + 5), &[1]);
        assert_eq!(a.resident_bytes(), PAGE_SIZE, "one write, one page");
        assert_eq!(read(&a, p.offset(2 * PAGE_SIZE + 4), 3), [0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn bounds_are_the_break_not_the_page() {
        let mut a = AddressSpace::new();
        let p = a.alloc(100);
        assert!(a.allocated() < PAGE_SIZE, "break falls inside page 0");
        a.write(p.offset(96), &[0; 5]);
    }

    #[test]
    fn rmw_on_last_cell_of_a_page() {
        let mut a = AddressSpace::new();
        let p = a.alloc(2 * PAGE_SIZE);
        let last = p.offset(PAGE_SIZE - 8);
        assert_eq!(a.rmw_u64(last, |v| v + 41), 0);
        assert_eq!(a.rmw_u64(last, |v| v + 1), 41);
        assert_eq!(a.read_u64(last), 42);
        assert_eq!(a.read_u64(p.offset(PAGE_SIZE)), 0, "next page untouched");
        assert_eq!(a.resident_bytes(), PAGE_SIZE);
        // A cell straddling the edge commits both pages.
        let straddle = p.offset(PAGE_SIZE - 4);
        a.rmw_u64(straddle, |_| u64::MAX);
        assert_eq!(a.read_u64(straddle), u64::MAX);
        assert_eq!(a.resident_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn huge_alloc_panics_instead_of_wrapping() {
        let mut a = AddressSpace::new();
        a.alloc(8);
        a.alloc(usize::MAX);
    }

    /// One arena operation; offsets and lengths are reduced modulo the
    /// current break when applied, and biased toward page edges.
    type Op = (u8, u64, usize, u64);

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0..4u8, 0..u64::MAX, 0..3 * PAGE_SIZE, 0..u64::MAX), 1..40)
    }

    /// A start in `[0, brk)`: half the time within 16 bytes of a page edge.
    fn pick(brk: usize, r: u64) -> usize {
        let near_edge = r.is_multiple_of(2);
        let r = (r / 2) as usize;
        let at = if near_edge {
            (r % (brk / PAGE_SIZE + 1)) * PAGE_SIZE + (r / 7) % 32
        } else {
            r
        };
        at.saturating_sub(16) % brk
    }

    proptest! {
        #[test]
        fn arena_matches_flat_model(ops in arb_ops()) {
            let mut a = AddressSpace::new();
            let mut model: Vec<u8> = Vec::new();
            let mut touched = BTreeSet::new();
            for (kind, r, len, v) in ops {
                let brk = model.len();
                match kind {
                    0 => {
                        let p = a.alloc(len);
                        prop_assert_eq!(p.0 as usize, brk.next_multiple_of(8));
                        model.resize(p.0 as usize + len, 0);
                    }
                    _ if brk == 0 => {}
                    1 => {
                        let start = pick(brk, r);
                        let len = len.min(brk - start);
                        let data: Vec<u8> =
                            (0..len).map(|i| (v as usize + i * 31) as u8).collect();
                        a.write(Addr(start as u64), &data);
                        model[start..start + len].copy_from_slice(&data);
                        touched.extend(pieces(start..start + len).map(|(pg, _, _)| pg));
                    }
                    2 => {
                        let start = pick(brk, r);
                        let len = len.min(brk - start);
                        prop_assert_eq!(read(&a, Addr(start as u64), len), &model[start..start + len]);
                    }
                    _ if brk < 8 => {}
                    _ => {
                        let start = pick(brk - 7, r);
                        let cell = &mut model[start..start + 8];
                        let want = u64::from_le_bytes(cell.try_into().expect("8 bytes"));
                        let prev = a.rmw_u64(Addr(start as u64), |x| x.wrapping_add(v));
                        prop_assert_eq!(prev, want);
                        cell.copy_from_slice(&want.wrapping_add(v).to_le_bytes());
                        touched.extend(pieces(start..start + 8).map(|(pg, _, _)| pg));
                    }
                }
                prop_assert_eq!(a.allocated(), model.len());
                prop_assert_eq!(a.resident_bytes(), touched.len() * PAGE_SIZE);
            }
            prop_assert_eq!(read(&a, Addr(0), model.len()), model);
        }
    }
}
