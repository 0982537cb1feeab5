//! Compact binary graph format.
//!
//! The paper amortises iHTL preprocessing by storing the transformed graph
//! "in its binary format (similar to the special file formats that each
//! framework uses) on disk" (§4.2). This module provides that capability for
//! plain graphs; the `ihtl-core` crate reuses it for its blocked structure.
//!
//! Layout (little-endian): magic `IHTLGRPH`, version u32, n_vertices u64,
//! n_edges u64, then the CSR offsets (u64 each) and targets (u32 each).
//! The CSC is rebuilt on load (cheaper than storing both).
//!
//! This module also hosts the low-level persistence doctrine every binary
//! format in the workspace shares (`IHTLGRPH` here, `IHTLBLK2` in
//! `ihtl-core`, `IHTLPBG1` in `ihtl-traversal`, and the `ihtl-store` block
//! store built on all three):
//!
//! * **Atomic writes** ([`save_atomic`]): the payload goes to a uniquely
//!   named sibling temp file which is `rename`d into place, so a crash
//!   mid-write can never leave a truncated image at the final path.
//! * **Checksum trailer** ([`ChecksumWriter`], [`verify_trailer`]): every
//!   saved image ends with `IHTLSUM1` + the FNV-1a-64 of the payload.
//!   Loaders verify and strip the trailer *before* structural validation;
//!   an image without one is rejected (nothing writes such an image).
//! * **Bounds-checked parsing** ([`Cursor`]): every loader reads through
//!   one cursor that validates the remaining length before each read and
//!   each element count before the allocation it sizes, so a malformed
//!   image can only ever yield `InvalidData` — never a panic, a mis-read,
//!   or an allocation sized from untrusted bytes.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::csr::Csr;
use crate::graph::Graph;
use crate::{EdgeIndex, VertexId};

const MAGIC: &[u8; 8] = b"IHTLGRPH";
const VERSION: u32 = 1;

/// Magic that opens the checksum trailer appended to every saved image.
pub const TRAILER_MAGIC: &[u8; 8] = b"IHTLSUM1";

/// Total trailer size: magic + u64 checksum.
pub const TRAILER_LEN: usize = 16;

/// Incremental FNV-1a-64 hasher — the same function the serve tier uses for
/// wire checksums ([`fnv1a_checksum` in `ihtl-serve`] delegates here), reused
/// for image trailers so one implementation covers both.
#[derive(Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a-64 offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a-64 over a byte slice.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// A writer that hashes everything written through it, so the checksum
/// trailer can be computed while streaming the payload (no second pass).
pub struct ChecksumWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> ChecksumWriter<W> {
    pub fn new(inner: W) -> ChecksumWriter<W> {
        ChecksumWriter { inner, hash: Fnv1a::new() }
    }

    /// The hash of everything written so far.
    pub fn checksum(&self) -> u64 {
        self.hash.finish()
    }

    /// Unwraps the inner writer (e.g. to append the trailer unhashed).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.write(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Disambiguates concurrent writers within one process; the pid handles
/// concurrent processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_sibling(path: &Path) -> PathBuf {
    // ORDERING: Relaxed — only uniqueness of the sequence number matters.
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("image");
    path.with_file_name(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// Writes an image atomically: streams `write_payload` through a
/// [`ChecksumWriter`] into a uniquely named sibling temp file, appends the
/// `IHTLSUM1` checksum trailer, and `rename`s into place. A crash at any
/// point leaves either the old file or nothing at `path` — never a torn
/// image (rename within one directory is atomic on POSIX).
pub fn save_atomic(
    path: &Path,
    write_payload: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut cw = ChecksumWriter::new(BufWriter::new(File::create(&tmp)?));
        write_payload(&mut cw)?;
        let sum = cw.checksum();
        let mut w = cw.into_inner();
        w.write_all(TRAILER_MAGIC)?;
        w.write_all(&sum.to_le_bytes())?;
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Verifies a loaded image's checksum trailer and returns the payload slice
/// (trailer stripped). A missing trailer or a mismatch is `InvalidData`.
pub fn verify_trailer(data: &[u8]) -> io::Result<&[u8]> {
    let split = data
        .len()
        .checked_sub(TRAILER_LEN)
        .ok_or_else(|| invalid("image shorter than its checksum trailer"))?;
    let (payload, trailer) = data.split_at(split);
    let (magic, stored) = trailer.split_at(8);
    if magic != TRAILER_MAGIC {
        return Err(invalid("image has no IHTLSUM1 checksum trailer"));
    }
    if fnv1a_64(payload).to_le_bytes() != stored {
        return Err(invalid("checksum trailer does not match payload (image corrupted)"));
    }
    Ok(payload)
}

/// Appends the checksum trailer to an in-memory payload — what
/// [`save_atomic`] does while streaming to a file.
pub fn append_trailer(payload: &mut Vec<u8>) {
    let sum = fnv1a_64(payload);
    payload.extend_from_slice(TRAILER_MAGIC);
    payload.extend_from_slice(&sum.to_le_bytes());
}

/// Bounds-checked reader over an in-memory image payload, shared by every
/// loader in the workspace. `what` names the field in the error message.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed. A well-formed image is consumed exactly.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(invalid(format!("truncated {what}")));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u32(&mut self, what: &str) -> io::Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4, what)?);
        Ok(u32::from_le_bytes(b))
    }

    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` that will be used as a count of `elem_bytes`-sized
    /// items: rejects values whose payload could not possibly fit in the
    /// remaining bytes, so anything sized from it is bounded by the file.
    pub fn len(&mut self, elem_bytes: usize, what: &str) -> io::Result<usize> {
        let v = self.u64(what)?;
        let v = usize::try_from(v).map_err(|_| invalid(format!("{what} too large")))?;
        self.array_bytes(v, elem_bytes, what)?;
        Ok(v)
    }

    /// `count * elem_bytes`, rejected unless that many bytes remain.
    fn array_bytes(&self, count: usize, elem_bytes: usize, what: &str) -> io::Result<usize> {
        count
            .checked_mul(elem_bytes)
            .filter(|&bytes| bytes <= self.remaining())
            .ok_or_else(|| invalid(format!("{what} larger than remaining bytes")))
    }

    /// Reads `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: usize, what: &str) -> io::Result<Vec<u32>> {
        let raw = self.take(self.array_bytes(count, 4, what)?, what)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Reads `count` little-endian `u64`s.
    pub fn u64s(&mut self, count: usize, what: &str) -> io::Result<Vec<u64>> {
        let raw = self.take(self.array_bytes(count, 8, what)?, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// Reads a CSR body — `n_rows + 1` offsets, then `n_edges` targets — and
    /// validates everything [`Csr::from_parts`] would otherwise assert:
    /// offsets start at 0, end at `n_edges` and never decrease; every
    /// target is a column below `n_cols`.
    pub fn csr(
        &mut self,
        n_rows: usize,
        n_cols: usize,
        n_edges: usize,
        what: &str,
    ) -> io::Result<Csr> {
        let n_offsets =
            n_rows.checked_add(1).ok_or_else(|| invalid(format!("{what} row count")))?;
        let offsets: Vec<EdgeIndex> = self.u64s(n_offsets, what)?;
        let targets: Vec<VertexId> = self.u32s(n_edges, what)?;
        if offsets.first() != Some(&0) || offsets.last() != Some(&(n_edges as EdgeIndex)) {
            return Err(invalid(format!("{what} offsets do not span the edge array")));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid(format!("{what} offsets not monotone")));
        }
        if targets.iter().any(|&t| (t as usize) >= n_cols) {
            return Err(invalid(format!("{what} target out of range")));
        }
        Ok(Csr::from_parts(offsets, targets, n_cols))
    }
}

/// Writes `g` to `path` in the binary format (atomic, checksum-trailered).
pub fn save_graph(g: &Graph, path: &Path) -> io::Result<()> {
    save_atomic(path, |w| {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(g.n_vertices() as u64).to_le_bytes())?;
        w.write_all(&(g.n_edges() as u64).to_le_bytes())?;
        for &o in g.csr().offsets() {
            w.write_all(&o.to_le_bytes())?;
        }
        for &t in g.csr().targets() {
            w.write_all(&t.to_le_bytes())?;
        }
        Ok(())
    })
}

/// Reads a graph previously written by [`save_graph`].
pub fn load_graph(path: &Path) -> io::Result<Graph> {
    let data = std::fs::read(path)?;
    load_graph_bytes(&data)
}

/// Parses an in-memory image written by [`save_graph`]. Anything else —
/// truncated at any byte, counts exceeding the payload, offsets or targets
/// that do not describe a graph, a missing or failing checksum trailer — is
/// `InvalidData`, never a panic or a header-sized allocation. The artifact
/// store reads files itself so a missing file is a miss and a failed parse
/// is a quarantine — it needs the parse separated from the I/O.
pub fn load_graph_bytes(data: &[u8]) -> io::Result<Graph> {
    let mut c = Cursor::new(verify_trailer(data)?);
    if c.take(8, "magic")? != MAGIC {
        return Err(invalid("bad magic"));
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(invalid(format!("unsupported version {version}")));
    }
    let n = c.len(8, "n_vertices")?; // an offset per vertex follows
    let m = c.len(4, "n_edges")?;
    let csr = c.csr(n, n, m, "graph CSR")?;
    if c.remaining() != 0 {
        return Err(invalid("trailing bytes after graph CSR"));
    }
    let csc = csr.transpose();
    Ok(Graph::from_views(csr, csc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_example_graph;

    #[test]
    fn roundtrip() {
        let g = paper_example_graph();
        let dir = std::env::temp_dir().join("ihtl_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper_example.bin");
        save_graph(&g, &path).unwrap();
        let h = load_graph(&path).unwrap();
        assert_eq!(h.csr(), g.csr());
        assert_eq!(h.csc(), g.csc());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("ihtl_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bin");
        std::fs::write(&path, b"not a graph").unwrap();
        assert!(load_graph(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The payload `save_graph` writes for the paper example, trailer-less:
    /// 28-byte header (magic, version, n, m), n + 1 offsets, m targets.
    fn example_payload() -> Vec<u8> {
        let g = paper_example_graph();
        let dir = std::env::temp_dir().join("ihtl_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("image_{:?}.bin", std::thread::current().id()));
        save_graph(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(load_graph_bytes(&bytes).is_ok());
        bytes.truncate(bytes.len() - TRAILER_LEN);
        bytes
    }

    /// `payload` edited, under a trailer computed over the edited bytes: the
    /// checksum passes, so only the structural validation can reject it.
    fn sealed(payload: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut image = payload.to_vec();
        edit(&mut image);
        append_trailer(&mut image);
        image
    }

    fn assert_invalid(result: io::Result<Graph>, label: &str) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{label}"),
            Ok(_) => panic!("{label}: accepted"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix_and_a_missing_trailer() {
        let payload = example_payload();
        let full = sealed(&payload, |_| {});
        assert!(load_graph_bytes(&full).is_ok());
        assert_invalid(load_graph_bytes(&payload), "trailer-less image");
        for cut in 0..full.len() {
            assert_invalid(load_graph_bytes(&full[..cut]), &format!("cut at {cut}"));
        }
        for cut in 0..payload.len() {
            let image = sealed(&payload, |p| p.truncate(cut));
            assert_invalid(load_graph_bytes(&image), &format!("sealed cut at {cut}"));
        }
        assert_invalid(load_graph_bytes(&sealed(&payload, |p| p.push(0))), "trailing byte");
    }

    #[test]
    fn rejects_counts_larger_than_the_remaining_bytes() {
        // n_vertices at byte 12, n_edges at byte 20. Before the shared
        // cursor, 2^60 here reached `Vec::with_capacity` and panicked.
        let payload = example_payload();
        for off in [12, 20] {
            for huge in [u64::MAX, 1 << 60, payload.len() as u64] {
                let image =
                    sealed(&payload, |p| p[off..off + 8].copy_from_slice(&huge.to_le_bytes()));
                assert_invalid(load_graph_bytes(&image), &format!("count at {off} = {huge}"));
            }
        }
    }

    #[test]
    fn rejects_offsets_and_targets_that_do_not_describe_a_graph() {
        let payload = example_payload();
        let n = paper_example_graph().n_vertices();
        let offsets_at = 28;
        let targets_at = offsets_at + (n + 1) * 8;
        let set_u64 = |at: usize, v: u64| {
            move |p: &mut Vec<u8>| p[at..at + 8].copy_from_slice(&v.to_le_bytes())
        };
        // Non-monotone: the second offset jumps past the third.
        assert_invalid(
            load_graph_bytes(&sealed(&payload, set_u64(offsets_at + 8, u64::MAX >> 1))),
            "non-monotone offsets",
        );
        assert_invalid(load_graph_bytes(&sealed(&payload, set_u64(offsets_at, 1))), "first offset");
        assert_invalid(
            load_graph_bytes(&sealed(&payload, set_u64(offsets_at + n * 8, 0))),
            "last offset",
        );
        // A target naming a vertex the graph does not have.
        let image = sealed(&payload, |p| {
            p[targets_at..targets_at + 4].copy_from_slice(&(n as u32).to_le_bytes());
        });
        assert_invalid(load_graph_bytes(&image), "out-of-range target");
        assert_invalid(load_graph_bytes(&sealed(&payload, |p| p[0] ^= 1)), "bad magic");
        assert_invalid(load_graph_bytes(&sealed(&payload, |p| p[8] ^= 2)), "bad version");
    }

    #[test]
    fn flipped_bytes_never_panic_and_never_pass_the_trailer() {
        let payload = example_payload();
        let full = sealed(&payload, |_| {});
        for i in 0..full.len() {
            // Under the original trailer the checksum catches every flip...
            let mut image = full.clone();
            image[i] ^= 0xff;
            assert_invalid(load_graph_bytes(&image), &format!("flipped byte {i}"));
            // ...and under a recomputed one the loader may accept a flip
            // that still describes a graph, but must not panic on any.
            if i < payload.len() {
                if let Err(e) = load_graph_bytes(&sealed(&payload, |p| p[i] ^= 0xff)) {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "resealed flip at {i}");
                }
            }
        }
    }
}
