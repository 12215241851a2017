//! Binary checkpoint encoding for crash-resume.
//!
//! A long matrix run must survive being killed: the simulation can emit a
//! checkpoint blob after any round and a fresh process can restore it and
//! continue **byte-identical** to a straight-through run. The format is a
//! hand-rolled little-endian layout (std-only, no serde in the workspace)
//! with a magic/version header; every multi-byte integer is LE, floats
//! travel as their IEEE-754 bit patterns so restore round-trips exactly.
//!
//! This module holds the primitive writer/reader plus the encoders for
//! the composite pieces ([`fedrec_linalg::SparseGrad`],
//! [`fedrec_linalg::SeededRng`] full states including the cached
//! Box–Muller spare, [`crate::history::TrainingHistory`]); the simulation-level
//! layout lives in [`crate::Simulation::checkpoint`].

use crate::history::{RoundDefense, RoundFaults, TrainingHistory};
use fedrec_linalg::{SeededRng, SparseGrad};

/// Appends checkpoint fields to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` (as `u64`; the format is 64-bit regardless of host).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write an `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Write an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, vs: &[f32]) {
        self.usize(vs.len());
        for &v in vs {
            self.f32(v);
        }
    }

    /// Write a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    /// Write a length-prefixed raw byte blob.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.usize(bs.len());
        self.buf.extend_from_slice(bs);
    }
}

/// Cursor over an encoded checkpoint. All reads panic with a
/// "checkpoint truncated" message on short input — a damaged checkpoint
/// must never restore silently.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading from the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            n <= self.remaining(),
            "checkpoint truncated: wanted {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read the length prefix of a list whose elements each take at least
    /// `min_bytes` encoded bytes. Panics with "checkpoint truncated" unless
    /// that many elements fit in the bytes left, so a damaged prefix can
    /// never size an allocation: every prefix-sized collect reads its
    /// count here.
    pub fn count(&mut self, min_bytes: usize) -> usize {
        let n = self.usize();
        assert!(
            n.checked_mul(min_bytes)
                .is_some_and(|need| need <= self.remaining()),
            "checkpoint truncated: {n} elements of at least {min_bytes} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        );
        n
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> usize {
        let v = self.u64();
        usize::try_from(v).expect("checkpoint length exceeds host usize")
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a bool; panics on anything but 0/1.
    pub fn bool(&mut self) -> bool {
        match self.u8() {
            0 => false,
            1 => true,
            b => panic!("checkpoint corrupt: bool byte {b}"),
        }
    }

    /// Read an `f32` bit pattern.
    pub fn f32(&mut self) -> f32 {
        f32::from_bits(self.u32())
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Read a length-prefixed `f32` vector.
    pub fn f32_vec(&mut self) -> Vec<f32> {
        let n = self.count(4);
        (0..n).map(|_| self.f32()).collect()
    }

    /// Read a length-prefixed `u32` vector.
    pub fn u32_vec(&mut self) -> Vec<u32> {
        let n = self.count(4);
        (0..n).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed raw byte blob.
    pub fn bytes(&mut self) -> &'a [u8] {
        let n = self.usize();
        self.take(n)
    }
}

/// Encode a raw RNG full-state tuple (the shape
/// [`SeededRng::full_state`] returns) — the xoshiro words plus the
/// Box–Muller spare; dropping the spare would shift the restored
/// Gaussian stream by one.
pub fn write_rng_state(w: &mut ByteWriter, (s, spare): ([u64; 4], Option<f64>)) {
    for word in s {
        w.u64(word);
    }
    match spare {
        Some(v) => {
            w.bool(true);
            w.f64(v);
        }
        None => w.bool(false),
    }
}

/// Decode a tuple written by [`write_rng_state`].
pub fn read_rng_state(r: &mut ByteReader<'_>) -> ([u64; 4], Option<f64>) {
    let state = [r.u64(), r.u64(), r.u64(), r.u64()];
    let spare = r.bool().then(|| r.f64());
    (state, spare)
}

/// Encode an RNG's full state via [`write_rng_state`].
pub fn write_rng(w: &mut ByteWriter, rng: &SeededRng) {
    write_rng_state(w, rng.full_state());
}

/// Decode an RNG written by [`write_rng`].
pub fn read_rng(r: &mut ByteReader<'_>) -> SeededRng {
    let (state, spare) = read_rng_state(r);
    SeededRng::from_full_state(state, spare)
}

/// Encode a sparse gradient (for the pending-late-upload queue).
pub fn write_grad(w: &mut ByteWriter, g: &SparseGrad) {
    w.usize(g.k());
    w.u32_slice(g.items());
    w.usize(g.items().len() * g.k());
    for (_, row) in g.iter() {
        for &v in row {
            w.f32(v);
        }
    }
}

/// Decode a gradient written by [`write_grad`].
pub fn read_grad(r: &mut ByteReader<'_>) -> SparseGrad {
    let k = r.usize();
    let items = r.u32_vec();
    let rows = r.f32_vec();
    SparseGrad::from_sorted_rows(k, items, rows)
}

/// Encode a full training history (the prefix recorded up to the
/// checkpointed round, so a resumed run appends to exactly the same
/// record a straight-through run would hold).
pub fn write_history(w: &mut ByteWriter, h: &TrainingHistory) {
    w.usize(h.losses.len());
    for &l in &h.losses {
        w.f32(l);
    }
    w.usize(h.defense.len());
    for d in &h.defense {
        w.usize(d.epoch);
        w.usize(d.inspected);
        w.usize(d.flagged);
        w.usize(d.excluded);
        w.usize(d.malicious);
        w.usize(d.true_positives);
        w.f64(d.precision);
        w.f64(d.recall);
    }
    w.usize(h.faults.len());
    for f in &h.faults {
        w.usize(f.epoch);
        w.usize(f.selected);
        w.usize(f.dropped);
        w.usize(f.deferred);
        w.usize(f.late);
        w.usize(f.rejected);
        w.usize(f.retried);
        w.bool(f.quorum_skipped);
    }
}

/// Decode a history written by [`write_history`].
pub fn read_history(r: &mut ByteReader<'_>) -> TrainingHistory {
    let n = r.count(4);
    let losses: Vec<f32> = (0..n).map(|_| r.f32()).collect();
    // Six `usize` counts and two `f64` rates per round.
    let nd = r.count(64);
    let defense: Vec<RoundDefense> = (0..nd)
        .map(|_| RoundDefense {
            epoch: r.usize(),
            inspected: r.usize(),
            flagged: r.usize(),
            excluded: r.usize(),
            malicious: r.usize(),
            true_positives: r.usize(),
            precision: r.f64(),
            recall: r.f64(),
        })
        .collect();
    // Seven `usize` counts and one bool per round.
    let nf = r.count(57);
    let faults: Vec<RoundFaults> = (0..nf)
        .map(|_| RoundFaults {
            epoch: r.usize(),
            selected: r.usize(),
            dropped: r.usize(),
            deferred: r.usize(),
            late: r.usize(),
            rejected: r.usize(),
            retried: r.usize(),
            quorum_skipped: r.bool(),
        })
        .collect();
    TrainingHistory {
        losses,
        defense,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        assert!(w.is_empty());
        w.u64(u64::MAX);
        w.usize(42);
        w.u32(7);
        w.u8(250);
        w.bool(true);
        w.bool(false);
        w.f32(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.f32_slice(&[1.5, f32::NAN]);
        w.u32_slice(&[3, 9]);
        w.bytes(b"blob");
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64(), u64::MAX);
        assert_eq!(r.usize(), 42);
        assert_eq!(r.u32(), 7);
        assert_eq!(r.u8(), 250);
        assert!(r.bool());
        assert!(!r.bool());
        assert_eq!(r.f32().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64(), f64::MIN_POSITIVE);
        let fs = r.f32_vec();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_nan(), "NaN bit patterns must survive");
        assert_eq!(r.u32_vec(), vec![3, 9]);
        assert_eq!(r.bytes(), b"blob");
        assert!(r.is_exhausted());
    }

    #[test]
    fn rng_round_trip_preserves_both_streams() {
        let mut rng = SeededRng::new(17);
        let _ = rng.gaussian(); // park a Box–Muller spare
        let mut w = ByteWriter::new();
        write_rng(&mut w, &rng);
        let bytes = w.into_bytes();
        let mut restored = read_rng(&mut ByteReader::new(&bytes));
        for _ in 0..9 {
            assert_eq!(rng.gaussian().to_bits(), restored.gaussian().to_bits());
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn grad_round_trip() {
        let mut g = SparseGrad::new(3);
        g.push_sorted(2, &[1.0, -2.0, 0.5]);
        g.push_sorted(9, &[0.0, 4.0, -0.25]);
        let mut w = ByteWriter::new();
        write_grad(&mut w, &g);
        write_grad(&mut w, &SparseGrad::new(3)); // empty grads too
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_grad(&mut r);
        assert_eq!(back.items(), g.items());
        assert_eq!(back.row(0), g.row(0));
        assert_eq!(back.row(1), g.row(1));
        let empty = read_grad(&mut r);
        assert!(empty.is_empty());
        assert_eq!(empty.k(), 3);
    }

    #[test]
    fn history_round_trip() {
        let mut h = TrainingHistory::new();
        h.losses.extend([3.0, 2.5, 2.1]);
        h.defense.push(RoundDefense {
            epoch: 2,
            inspected: 8,
            flagged: 1,
            excluded: 1,
            malicious: 1,
            true_positives: 1,
            precision: 1.0,
            recall: 1.0,
        });
        h.faults.push(RoundFaults {
            epoch: 2,
            selected: 8,
            dropped: 1,
            deferred: 1,
            late: 0,
            rejected: 2,
            retried: 3,
            quorum_skipped: true,
        });
        let mut w = ByteWriter::new();
        write_history(&mut w, &h);
        let bytes = w.into_bytes();
        let back = read_history(&mut ByteReader::new(&bytes));
        assert_eq!(back.losses, h.losses);
        assert_eq!(back.defense, h.defense);
        assert_eq!(back.faults, h.faults);
    }

    /// Run `read` over `bytes` and require the "checkpoint truncated" panic.
    fn assert_truncated(what: &str, bytes: &[u8], read: fn(&mut ByteReader<'_>)) {
        let err = std::panic::catch_unwind(|| read(&mut ByteReader::new(bytes)))
            .expect_err(&format!("{what} accepted a damaged blob"));
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("checkpoint truncated"), "{what}: {msg}");
    }

    /// A length prefix of 2^40 in a 16-byte blob fails as a truncated
    /// checkpoint before any collect reserves it; without the count bound
    /// each read aborts the process on a multi-terabyte allocation. The
    /// prefix is placed at every list the readers size from the blob, and a
    /// blob length near `usize::MAX` must not wrap the bounds check in
    /// `take`.
    #[test]
    fn oversized_length_prefixes_panic_as_truncated() {
        let blob = |head: &[u64]| {
            let mut w = ByteWriter::new();
            head.iter().for_each(|&v| w.u64(v));
            w.usize(1 << 40);
            w.u64(0);
            w.into_bytes()
        };
        assert_truncated("f32_vec", &blob(&[]), |r| {
            let _ = r.f32_vec();
        });
        assert_truncated("u32_vec", &blob(&[]), |r| {
            let _ = r.u32_vec();
        });
        // read_grad: the id list, then the row values.
        for head in [&[4][..], &[4, 0]] {
            assert_truncated("read_grad", &blob(head), |r| {
                let _ = read_grad(r);
            });
        }
        // read_history: losses, defense rounds, fault rounds.
        for head in [&[][..], &[0], &[0, 0]] {
            assert_truncated("read_history", &blob(head), |r| {
                let _ = read_history(r);
            });
        }
        let mut w = ByteWriter::new();
        w.usize(usize::MAX - 3);
        w.u64(0);
        assert_truncated("bytes", &w.into_bytes(), |r| {
            let _ = r.bytes();
        });
    }

    #[test]
    #[should_panic(expected = "checkpoint truncated")]
    fn truncated_input_panics() {
        let mut w = ByteWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        let _ = r.u64();
    }
}
