//! Binary persistence of the preprocessed iHTL graph.
//!
//! Paper §4.2: "The preprocessing overhead can be completely amortized
//! between different executions if the iHTL graph is stored in its binary
//! format (similar to the special file formats that each framework uses)
//! on disk after preprocessing." This module is that format.
//!
//! Layout (little-endian): magic `IHTLBLK2`, then the scalar header, the
//! relabeling array, per-block hub ranges + compacted CSR arrays + source
//! maps, the sparse CSR, and the out-degree array. Stats are persisted so a
//! loaded graph still reports Table 5's structural columns (timing fields
//! are zeroed). The magic was bumped from `IHTLBLK1` when flipped-block
//! rows became compacted (a `srcs` array per block).
//!
//! Persistence doctrine (shared with every binary format in the workspace,
//! see `ihtl_graph::io`): [`save_ihtl`] writes atomically (sibling temp
//! file + rename) and appends an FNV-1a-64 checksum trailer; [`load_ihtl`]
//! verifies the trailer *before* structural validation (an image without
//! one is rejected) and parses through the shared bounds-checked
//! [`Cursor`].

use std::io::{self, Write};
use std::path::Path;

use ihtl_graph::io::Cursor;
use ihtl_graph::{Csr, VertexId};

use crate::graph::{FlippedBlock, IhtlGraph};
use crate::stats::BuildStats;

const MAGIC: &[u8; 8] = b"IHTLBLK2";

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A length-prefixed `u32` array whose length must be `expect`.
fn u32_array(c: &mut Cursor<'_>, expect: usize, what: &str) -> io::Result<Vec<u32>> {
    if c.len(4, what)? != expect {
        return Err(invalid(format!("{what} length mismatch")));
    }
    c.u32s(expect, what)
}

/// A CSR as `write_csr` lays it out: rows, columns, edges, then the body.
fn csr(c: &mut Cursor<'_>, what: &str) -> io::Result<Csr> {
    let n_rows = c.len(8, what)?;
    let n_cols = usize::try_from(c.u64(what)?).map_err(|_| invalid(format!("{what} n_cols")))?;
    let n_edges = c.len(4, what)?;
    c.csr(n_rows, n_cols, n_edges, what)
}

/// Writes the preprocessed graph to `path`: atomically (a crash mid-write
/// can never leave a truncated image at the final path) and with a checksum
/// trailer (see `ihtl_graph::io::save_atomic`).
pub fn save_ihtl(ih: &IhtlGraph, path: &Path) -> io::Result<()> {
    ihtl_graph::io::save_atomic(path, |w| write_ihtl(ih, w))
}

/// Streams the `IHTLBLK2` payload (no trailer) to `w`.
pub fn write_ihtl(ih: &IhtlGraph, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let s = ih.stats();
    for v in [
        ih.n_vertices() as u64,
        ih.n_hubs() as u64,
        ih.n_vweh() as u64,
        s.hubs_per_block as u64,
        ih.n_blocks() as u64,
        s.min_hub_degree as u64,
        s.fb_edges as u64,
        s.sparse_edges as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    write_u32s(&mut *w, ih.new_to_old())?;
    write_u32s(&mut *w, ih.out_degree_new())?;
    w.write_all(&(s.block_feeders.len() as u64).to_le_bytes())?;
    for &f in &s.block_feeders {
        w.write_all(&(f as u64).to_le_bytes())?;
    }
    for b in ih.blocks() {
        w.write_all(&(b.hub_start as u64).to_le_bytes())?;
        w.write_all(&(b.hub_end as u64).to_le_bytes())?;
        write_csr(&mut *w, &b.edges)?;
        write_u32s(&mut *w, &b.srcs)?;
    }
    write_csr(&mut *w, ih.sparse())?;
    w.flush()
}

/// Reads a graph previously written by [`save_ihtl`].
pub fn load_ihtl(path: &Path) -> io::Result<IhtlGraph> {
    load_ihtl_bytes(&std::fs::read(path)?)
}

/// Parses an IHTLBLK2 image from memory. Corrupted input — truncated at any
/// byte, with internal length fields exceeding the payload, or failing the
/// checksum trailer, or lacking one — yields `InvalidData`, never a panic
/// or an unbounded allocation.
pub fn load_ihtl_bytes(data: &[u8]) -> io::Result<IhtlGraph> {
    let payload = ihtl_graph::io::verify_trailer(data)?;
    let mut c = Cursor::new(payload);
    if c.take(8, "magic")? != MAGIC {
        return Err(invalid("bad magic"));
    }
    let n = c.len(4, "n_vertices")?; // ≥ 4 bytes/vertex follow (relabel array)
    let n_hubs = c.u64("n_hubs")? as usize;
    let n_vweh = c.u64("n_vweh")? as usize;
    let hubs_per_block = c.u64("hubs_per_block")? as usize;
    let n_blocks = c.len(8, "n_blocks")?;
    let min_hub_degree = c.u64("min_hub_degree")? as usize;
    let fb_edges = c.u64("fb_edges")? as usize;
    let sparse_edges = c.u64("sparse_edges")? as usize;
    if n_hubs.checked_add(n_vweh).is_none_or(|a| a > n) {
        return Err(invalid("hub/vweh counts exceed n_vertices"));
    }
    let new_to_old = u32_array(&mut c, n, "relabel array")?;
    let out_degree_new = u32_array(&mut c, n, "out-degree array")?;
    let n_feeders = c.len(8, "block_feeders count")?;
    let mut block_feeders = Vec::with_capacity(n_feeders);
    for _ in 0..n_feeders {
        block_feeders.push(c.u64("block_feeders entry")? as usize);
    }
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut next_hub = 0 as VertexId;
    for _ in 0..n_blocks {
        let hub_start = c.u64("block hub_start")? as VertexId;
        let hub_end = c.u64("block hub_end")? as VertexId;
        // Blocks must tile 0..n_hubs contiguously: the merge phase writes
        // each block's hub range from a distinct task, so overlap would
        // alias parallel writes.
        if hub_start != next_hub || hub_start > hub_end || (hub_end as usize) > n_hubs {
            return Err(invalid("block hub ranges must tile 0..n_hubs"));
        }
        next_hub = hub_end;
        let edges = csr(&mut c, "block CSR")?;
        if edges.n_cols() > (hub_end - hub_start) as usize {
            // Block-local targets index per-thread hub buffers unchecked in
            // the push kernel, so the column bound must be the block width.
            return Err(invalid("block CSR wider than its hub range"));
        }
        let srcs = u32_array(&mut c, edges.n_rows(), "block srcs")?;
        if srcs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid("block srcs not ascending"));
        }
        if srcs.iter().any(|&u| (u as usize) >= n) {
            return Err(invalid("block src out of range"));
        }
        blocks.push(FlippedBlock { hub_start, hub_end, srcs, edges });
    }
    if (next_hub as usize) != n_hubs {
        return Err(invalid("blocks do not cover all hubs"));
    }
    let sparse = csr(&mut c, "sparse CSR")?;
    if sparse.n_rows() != n - n_hubs || sparse.n_cols() != n {
        return Err(invalid("sparse CSR shape mismatch"));
    }
    // A well-formed image is consumed exactly.
    if c.remaining() != 0 {
        return Err(invalid("trailing bytes after sparse CSR"));
    }

    let mut old_to_new = vec![0 as VertexId; n];
    for (new, &old) in new_to_old.iter().enumerate() {
        if (old as usize) >= n {
            return Err(invalid("relabel out of range"));
        }
        old_to_new[old as usize] = new as VertexId;
    }
    let stats = BuildStats {
        n_blocks,
        hubs_per_block,
        n_hubs,
        n_vweh,
        n_fv: n - n_hubs - n_vweh,
        min_hub_degree,
        fb_edges,
        sparse_edges,
        block_feeders,
        preprocessing_seconds: 0.0,
    };
    let parts = ihtl_traversal::pull::default_parts();
    let push_tasks = crate::build::build_push_tasks(&blocks, parts);
    let merge_tasks = crate::build::build_merge_tasks(&blocks);
    let sparse_tasks = crate::build::build_sparse_tasks(&sparse, parts);
    Ok(IhtlGraph {
        n,
        n_hubs,
        n_vweh,
        new_to_old,
        old_to_new,
        blocks,
        sparse,
        out_degree_new,
        push_tasks,
        merge_tasks,
        sparse_tasks,
        stats,
    })
}

fn write_u32s<W: Write + ?Sized>(w: &mut W, data: &[u32]) -> io::Result<()> {
    w.write_all(&(data.len() as u64).to_le_bytes())?;
    for &v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_csr<W: Write + ?Sized>(w: &mut W, c: &Csr) -> io::Result<()> {
    w.write_all(&(c.n_rows() as u64).to_le_bytes())?;
    w.write_all(&(c.n_cols() as u64).to_le_bytes())?;
    w.write_all(&(c.n_edges() as u64).to_le_bytes())?;
    for &o in c.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &t in c.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;
    use ihtl_traversal::Add;

    #[test]
    fn roundtrip_preserves_structure_and_results() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let dir = std::env::temp_dir().join("ihtl_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("example.ihtl");
        save_ihtl(&ih, &path).unwrap();
        let loaded = load_ihtl(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.n_vertices(), ih.n_vertices());
        assert_eq!(loaded.n_hubs(), ih.n_hubs());
        assert_eq!(loaded.n_blocks(), ih.n_blocks());
        assert_eq!(loaded.new_to_old(), ih.new_to_old());
        assert_eq!(loaded.stats().fb_edges, ih.stats().fb_edges);
        assert_eq!(loaded.stats().block_feeders, ih.stats().block_feeders);

        // SpMV over the loaded graph matches the original.
        let x: Vec<f64> = (0..8).map(|i| (i + 2) as f64).collect();
        let x_new = ih.to_new_order(&x);
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        let mut b1 = ih.new_buffers();
        let mut b2 = loaded.new_buffers();
        ih.spmv::<Add>(&x_new, &mut y1, &mut b1);
        loaded.spmv::<Add>(&x_new, &mut y2, &mut b2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("ihtl_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.ihtl");
        std::fs::write(&path, b"IHTLBLK1 but then garbage").unwrap();
        assert!(load_ihtl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A valid serialized image of the paper example graph.
    fn example_image() -> Vec<u8> {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let ih = IhtlGraph::build(&g, &cfg);
        let dir = std::env::temp_dir().join("ihtl_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("image_{:?}.ihtl", std::thread::current().id()));
        save_ihtl(&ih, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// `image` with its payload altered by `edit` and the trailer recomputed
    /// over the result: the checksum passes, so only the structural
    /// validation stands between the edit and the kernels.
    fn resealed(image: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut payload = image[..image.len() - ihtl_graph::io::TRAILER_LEN].to_vec();
        edit(&mut payload);
        ihtl_graph::io::append_trailer(&mut payload);
        payload
    }

    fn assert_invalid(result: io::Result<IhtlGraph>, label: &str) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{label}"),
            Ok(_) => panic!("{label}: accepted"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        // Cut the image at every possible byte boundary: the loader must
        // return InvalidData each time — never panic, never succeed. This
        // covers mid-magic, mid-header, mid-u32-array, mid-CSR, and
        // mid-trailer cuts in one sweep (the image is a few hundred bytes),
        // including the cut that removes exactly the trailer.
        let full = example_image();
        assert!(load_ihtl_bytes(&full).is_ok());
        assert_eq!(resealed(&full, |_| {}), full);
        for cut in 0..full.len() {
            assert_invalid(load_ihtl_bytes(&full[..cut]), &format!("cut at {cut}"));
            // The same truncated payload under a trailer of its own.
            let payload_cut = cut.min(full.len() - ihtl_graph::io::TRAILER_LEN);
            let mut sealed = full[..payload_cut].to_vec();
            ihtl_graph::io::append_trailer(&mut sealed);
            if sealed != full {
                assert_invalid(load_ihtl_bytes(&sealed), &format!("sealed cut at {payload_cut}"));
            }
        }
    }

    #[test]
    fn trailer_detects_nonstructural_corruption() {
        // min_hub_degree (header field 5) is a reporting-only stat: flipping
        // it passes every structural check, so only the checksum trailer can
        // catch the corruption.
        let full = example_image();
        let mut img = full.clone();
        img[8 + 5 * 8] ^= 1;
        assert_invalid(load_ihtl_bytes(&img), "flipped stats byte");
        // Recomputing the trailer over the flipped payload is what it takes
        // to get it loaded — which is exactly why an image without a
        // trailer cannot be trusted.
        assert!(load_ihtl_bytes(&resealed(&full, |p| p[8 + 5 * 8] ^= 1)).is_ok());
    }

    #[test]
    fn legacy_trailerless_images_are_rejected() {
        let full = example_image();
        let legacy = &full[..full.len() - ihtl_graph::io::TRAILER_LEN];
        assert_invalid(load_ihtl_bytes(legacy), "trailer-less image");
    }

    #[test]
    fn rejects_len_fields_larger_than_remaining_bytes() {
        // Overwrite each 8-byte length-bearing header/array field with a
        // huge value under a valid trailer: the loader must reject without
        // attempting to allocate or read past the payload. Field 0 is
        // n_vertices (byte offset 8); the relabel-array length sits right
        // after the 8-field header.
        let full = example_image();
        for off in [8, 8 + 8 * 8] {
            for huge in [u64::MAX, 1 << 60, full.len() as u64] {
                let img = resealed(&full, |p| p[off..off + 8].copy_from_slice(&huge.to_le_bytes()));
                assert_invalid(load_ihtl_bytes(&img), &format!("field at {off} = {huge}"));
            }
        }
    }

    #[test]
    fn rejects_flipped_corruption_without_panicking() {
        // Flip every byte of the image one at a time — as is (the trailer
        // catches it) and under a recomputed trailer (only the structural
        // checks can). Loading must either fail cleanly or succeed (some
        // bytes — e.g. stats counters — are not structural); it must never
        // panic.
        let full = example_image();
        for i in 0..full.len() {
            let mut img = full.clone();
            img[i] ^= 0xff;
            assert_invalid(load_ihtl_bytes(&img), &format!("flipped byte {i}"));
            if i < full.len() - ihtl_graph::io::TRAILER_LEN {
                if let Err(e) = load_ihtl_bytes(&resealed(&full, |p| p[i] ^= 0xff)) {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "resealed flip at {i}");
                }
            }
        }
    }
}
