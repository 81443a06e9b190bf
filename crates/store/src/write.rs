//! Streaming v2 writer.
//!
//! Section sizes are all derivable from `(n, m, |L|, …)` before any payload
//! byte exists, so the header and section table are written **first** and
//! payloads are streamed behind them — a 24M-node graph serializes without
//! ever holding a second copy in memory. The only backwards seek is the
//! final `data_checksum` patch at offset 48.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use kpj_graph::{CategoryIndex, EdgeRef, Graph, NodeRemap, Reduction};
use kpj_landmark::LandmarkIndex;

use crate::format::{
    align_up, section_id, Fnv64, SectionEntry, StoreError, FLAG_SYMMETRIC, HEADER_LEN, MAGIC,
    SECTION_ENTRY_LEN, VERSION,
};

/// Offset of the `data_checksum` field patched by `finish`.
const DATA_CHECKSUM_OFFSET: u64 = 48;

/// Convert a count to the format's fixed `u32` width, refusing (rather
/// than silently truncating) anything that does not fit. `what` names the
/// count in the error, e.g. "section" or "category members".
fn count_u32(what: &'static str, count: u64) -> Result<u32, StoreError> {
    u32::try_from(count).map_err(|_| StoreError::CountOverflow { what, count })
}

/// Low-level section-at-a-time writer. Declared sections must be written
/// in table order with exactly the declared byte counts; `finish` patches
/// the data checksum and verifies the bookkeeping.
pub(crate) struct V2Writer<W: Write + Seek> {
    w: BufWriter<W>,
    pos: u64,
    data_fnv: Fnv64,
    table: Vec<SectionEntry>,
    next: usize,
    written_in_section: u64,
}

impl<W: Write + Seek> V2Writer<W> {
    /// Write the header and section table for `decls` (id, payload bytes)
    /// and position the stream at the first section.
    pub fn new(w: W, n: u64, m: u64, flags: u32, decls: &[(u32, u64)]) -> Result<Self, StoreError> {
        let mut table = Vec::with_capacity(decls.len());
        let mut cursor = align_up(HEADER_LEN + decls.len() as u64 * SECTION_ENTRY_LEN);
        for &(id, len) in decls {
            table.push(SectionEntry {
                id,
                offset: cursor,
                len,
            });
            cursor = align_up(cursor + len);
        }

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&flags.to_le_bytes());
        header.extend_from_slice(&n.to_le_bytes());
        header.extend_from_slice(&m.to_le_bytes());
        header.extend_from_slice(&count_u32("section", decls.len() as u64)?.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        debug_assert_eq!(header.len() as u64, 40);

        let mut table_bytes = Vec::with_capacity(table.len() * SECTION_ENTRY_LEN as usize);
        for e in &table {
            table_bytes.extend_from_slice(&e.id.to_le_bytes());
            table_bytes.extend_from_slice(&0u32.to_le_bytes());
            table_bytes.extend_from_slice(&e.offset.to_le_bytes());
            table_bytes.extend_from_slice(&e.len.to_le_bytes());
        }

        let mut meta = Fnv64::new();
        meta.update(&header);
        meta.update(&table_bytes);
        header.extend_from_slice(&meta.finish().to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // data checksum placeholder
        header.extend_from_slice(&0u64.to_le_bytes()); // reserved
        debug_assert_eq!(header.len() as u64, HEADER_LEN);

        let mut this = V2Writer {
            w: BufWriter::with_capacity(1 << 20, w),
            pos: 0,
            data_fnv: Fnv64::new(),
            table,
            next: 0,
            written_in_section: 0,
        };
        this.raw(&header)?;
        this.raw(&table_bytes)?;
        Ok(this)
    }

    fn raw(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.w.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn pad_to(&mut self, target: u64) -> Result<(), StoreError> {
        debug_assert!(target >= self.pos);
        const ZEROS: [u8; 64] = [0; 64];
        let mut gap = target - self.pos;
        while gap > 0 {
            let chunk = gap.min(64) as usize;
            self.raw(&ZEROS[..chunk])?;
            gap -= chunk as u64;
        }
        Ok(())
    }

    /// Start the next declared section; `id` must match the declaration.
    pub fn begin_section(&mut self, id: u32) -> Result<(), StoreError> {
        if self.next > 0 {
            let prev = self.table[self.next - 1];
            assert_eq!(
                self.written_in_section, prev.len,
                "section {} wrote {} bytes, declared {}",
                prev.id, self.written_in_section, prev.len
            );
        }
        let entry = self.table.get(self.next).unwrap_or_else(|| {
            panic!(
                "begin_section({id}) beyond the {} declared",
                self.table.len()
            )
        });
        assert_eq!(entry.id, id, "section order must match declarations");
        self.pad_to(entry.offset)?;
        self.next += 1;
        self.written_in_section = 0;
        Ok(())
    }

    /// Append payload bytes to the current section (checksummed).
    pub fn payload(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        assert!(self.next > 0, "payload before begin_section");
        self.data_fnv.update(bytes);
        self.written_in_section += bytes.len() as u64;
        self.raw(bytes)
    }

    /// Append a slice of `u32`s as little-endian payload.
    pub fn payload_u32s(
        &mut self,
        values: impl IntoIterator<Item = u32>,
    ) -> Result<(), StoreError> {
        let mut buf = [0u8; 4096];
        let mut used = 0;
        for v in values {
            buf[used..used + 4].copy_from_slice(&v.to_le_bytes());
            used += 4;
            if used == buf.len() {
                self.payload(&buf)?;
                used = 0;
            }
        }
        if used > 0 {
            self.payload(&buf[..used])?;
        }
        Ok(())
    }

    /// Append a slice of `u64`s as little-endian payload.
    pub fn payload_u64s(
        &mut self,
        values: impl IntoIterator<Item = u64>,
    ) -> Result<(), StoreError> {
        let mut buf = [0u8; 4096];
        let mut used = 0;
        for v in values {
            buf[used..used + 8].copy_from_slice(&v.to_le_bytes());
            used += 8;
            if used == buf.len() {
                self.payload(&buf)?;
                used = 0;
            }
        }
        if used > 0 {
            self.payload(&buf[..used])?;
        }
        Ok(())
    }

    /// Finish the file: verify every declared section was fully written,
    /// pad the tail, and patch `data_checksum` into the header.
    pub fn finish(mut self) -> Result<(), StoreError> {
        assert_eq!(
            self.next,
            self.table.len(),
            "finish with {}/{} sections written",
            self.next,
            self.table.len()
        );
        if let Some(last) = self.table.last() {
            assert_eq!(
                self.written_in_section, last.len,
                "last section wrote {} bytes, declared {}",
                self.written_in_section, last.len
            );
            self.pad_to(align_up(last.offset + last.len))?;
        }
        let checksum = self.data_fnv.finish();
        self.w.flush()?;
        let inner = self.w.get_mut();
        inner.seek(SeekFrom::Start(DATA_CHECKSUM_OFFSET))?;
        inner.write_all(&checksum.to_le_bytes())?;
        inner.flush()?;
        Ok(())
    }
}

/// Serialize the category index into its section payload.
fn categories_payload(cats: &CategoryIndex) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    out.extend_from_slice(&count_u32("category", cats.category_count() as u64)?.to_le_bytes());
    for (_, name, members) in cats.iter() {
        out.extend_from_slice(&count_u32("category name bytes", name.len() as u64)?.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&count_u32("category members", members.len() as u64)?.to_le_bytes());
        for &v in members {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

fn landmark_meta_payload(lm: &LandmarkIndex) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    out.extend_from_slice(&count_u32("landmark", lm.len() as u64)?.to_le_bytes());
    for &l in lm.landmarks() {
        out.extend_from_slice(&l.to_le_bytes());
    }
    Ok(out)
}

/// Write a complete v2 store for an in-memory graph plus optional sidecar
/// indexes. When the reverse CSR is byte-identical to the forward CSR (a
/// symmetric multigraph), the reverse sections are elided and the
/// SYMMETRIC flag set — readers alias them, halving the file.
///
/// `remap` and `reduction` are mutually exclusive: a reduced graph's
/// locality reorder is folded into the reduction offline
/// ([`Reduction::remapped`]), so a file never needs both.
pub fn write_store<W: Write + Seek>(
    w: W,
    graph: &Graph,
    categories: Option<&CategoryIndex>,
    landmarks: Option<&LandmarkIndex>,
    remap: Option<&NodeRemap>,
    reduction: Option<&Reduction>,
) -> Result<(), StoreError> {
    assert!(
        remap.is_none() || reduction.is_none(),
        "a reduced store folds its reorder into the reduction; pass one, not both"
    );
    let (out_offsets, out_edges, in_offsets, in_edges) = graph.sections();
    let n = graph.node_count() as u64;
    let m = graph.edge_count() as u64;
    let symmetric = out_offsets == in_offsets && out_edges == in_edges;

    let cats_payload = categories.map(categories_payload).transpose()?;
    let lm_meta = landmarks.map(landmark_meta_payload).transpose()?;

    let mut decls: Vec<(u32, u64)> = vec![
        (section_id::OUT_OFFSETS, (n + 1) * 4),
        (section_id::OUT_EDGES, m * 8),
    ];
    if !symmetric {
        decls.push((section_id::IN_OFFSETS, (n + 1) * 4));
        decls.push((section_id::IN_EDGES, m * 8));
    }
    if let Some(p) = &cats_payload {
        decls.push((section_id::CATEGORIES, p.len() as u64));
    }
    if let Some(lm) = landmarks {
        decls.push((
            section_id::LANDMARK_META,
            lm_meta.as_ref().unwrap().len() as u64,
        ));
        decls.push((section_id::LANDMARK_TABLES, lm.tables().len() as u64 * 8));
    }
    if let Some(r) = remap {
        decls.push((section_id::REMAP_OLD_TO_NEW, r.len() as u64 * 4));
        decls.push((section_id::REMAP_NEW_TO_OLD, r.len() as u64 * 4));
    }
    if let Some(r) = reduction {
        let (o2r, r2o, offs, nodes, prefix) = r.sections();
        assert_eq!(r2o.len() as u64, n, "reduction does not match the graph");
        assert_eq!(
            offs.len() as u64,
            m + 1,
            "reduction does not match the graph"
        );
        decls.push((section_id::REDUCE_ORIG_TO_RED, o2r.len() as u64 * 4));
        decls.push((section_id::REDUCE_RED_TO_ORIG, r2o.len() as u64 * 4));
        decls.push((section_id::REDUCE_EXP_OFFSETS, offs.len() as u64 * 4));
        decls.push((section_id::REDUCE_EXP_NODES, nodes.len() as u64 * 4));
        decls.push((section_id::REDUCE_EXP_PREFIX, prefix.len() as u64 * 4));
    }

    let flags = if symmetric { FLAG_SYMMETRIC } else { 0 };
    let mut w = V2Writer::new(w, n, m, flags, &decls)?;

    let write_csr = |w: &mut V2Writer<W>, offsets: &[u32], edges: &[EdgeRef], off_id, edge_id| {
        w.begin_section(off_id)?;
        w.payload_u32s(offsets.iter().copied())?;
        w.begin_section(edge_id)?;
        w.payload_u32s(edges.iter().flat_map(|e| [e.to, e.weight]))?;
        Ok::<(), StoreError>(())
    };
    write_csr(
        &mut w,
        out_offsets,
        out_edges,
        section_id::OUT_OFFSETS,
        section_id::OUT_EDGES,
    )?;
    if !symmetric {
        write_csr(
            &mut w,
            in_offsets,
            in_edges,
            section_id::IN_OFFSETS,
            section_id::IN_EDGES,
        )?;
    }
    if let Some(p) = &cats_payload {
        w.begin_section(section_id::CATEGORIES)?;
        w.payload(p)?;
    }
    if let Some(lm) = landmarks {
        w.begin_section(section_id::LANDMARK_META)?;
        w.payload(lm_meta.as_ref().unwrap())?;
        w.begin_section(section_id::LANDMARK_TABLES)?;
        w.payload_u64s(lm.tables().iter().copied())?;
    }
    if let Some(r) = remap {
        w.begin_section(section_id::REMAP_OLD_TO_NEW)?;
        w.payload_u32s(r.old_to_new().iter().copied())?;
        w.begin_section(section_id::REMAP_NEW_TO_OLD)?;
        w.payload_u32s(r.new_to_old().iter().copied())?;
    }
    if let Some(r) = reduction {
        let (o2r, r2o, offs, nodes, prefix) = r.sections();
        for (id, payload) in [
            (section_id::REDUCE_ORIG_TO_RED, o2r),
            (section_id::REDUCE_RED_TO_ORIG, r2o),
            (section_id::REDUCE_EXP_OFFSETS, offs),
            (section_id::REDUCE_EXP_NODES, nodes),
            (section_id::REDUCE_EXP_PREFIX, prefix),
        ] {
            w.begin_section(id)?;
            w.payload_u32s(payload.iter().copied())?;
        }
    }
    w.finish()
}

/// [`write_store`] straight to a file path.
pub fn write_store_to_path(
    path: &Path,
    graph: &Graph,
    categories: Option<&CategoryIndex>,
    landmarks: Option<&LandmarkIndex>,
    remap: Option<&NodeRemap>,
    reduction: Option<&Reduction>,
) -> Result<(), StoreError> {
    let file = File::create(path)?;
    write_store(file, graph, categories, landmarks, remap, reduction)
}

/// Streaming writer for **symmetric** graphs whose adjacency is produced
/// on the fly (the `gen-huge` generator): degrees first, then edges, in
/// `O(1)` memory. The SYMMETRIC flag makes the forward sections double as
/// the reverse CSR, so nothing is buffered or transposed.
pub struct StreamWriter<W: Write + Seek> {
    inner: V2Writer<W>,
    n: u64,
    m: u64,
    degrees_seen: u64,
    edges_seen: u64,
    cumulative: u64,
}

impl<W: Write + Seek> StreamWriter<W> {
    /// Begin a symmetric v2 file for `n` nodes and `m` directed edges.
    pub fn new(w: W, n: u64, m: u64) -> Result<Self, StoreError> {
        let decls = [
            (section_id::OUT_OFFSETS, (n + 1) * 4),
            (section_id::OUT_EDGES, m * 8),
        ];
        let mut inner = V2Writer::new(w, n, m, FLAG_SYMMETRIC, &decls)?;
        inner.begin_section(section_id::OUT_OFFSETS)?;
        inner.payload_u32s([0u32])?;
        Ok(StreamWriter {
            inner,
            n,
            m,
            degrees_seen: 0,
            edges_seen: 0,
            cumulative: 0,
        })
    }

    /// Record the out-degree of the next node (call exactly `n` times).
    pub fn push_degree(&mut self, degree: u32) -> Result<(), StoreError> {
        self.degrees_seen += 1;
        assert!(self.degrees_seen <= self.n, "more degrees than nodes");
        self.cumulative += degree as u64;
        assert!(self.cumulative <= self.m, "degrees sum past declared m");
        let offset = count_u32("cumulative degree", self.cumulative)?;
        self.inner.payload_u32s([offset])
    }

    /// Switch from the offsets section to the edges section.
    pub fn finish_degrees(&mut self) -> Result<(), StoreError> {
        assert_eq!(self.degrees_seen, self.n, "degree count != n");
        assert_eq!(self.cumulative, self.m, "degrees sum != m");
        self.inner.begin_section(section_id::OUT_EDGES)
    }

    /// Append the next edge in CSR order (call exactly `m` times, grouped
    /// by tail in the same order degrees were pushed).
    pub fn push_edge(&mut self, to: u32, weight: u32) -> Result<(), StoreError> {
        self.edges_seen += 1;
        assert!(self.edges_seen <= self.m, "more edges than declared");
        self.inner.payload_u32s([to, weight])
    }

    /// Seal the file (pads, patches the data checksum).
    pub fn finish(self) -> Result<(), StoreError> {
        assert_eq!(self.edges_seen, self.m, "edge count != m");
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn oversized_counts_error_instead_of_truncating() {
        // Mocked lengths: a real >4B-element section would need tens of
        // gigabytes, so the checked conversion is exercised directly with
        // the counts such a section would produce.
        assert!(count_u32("section", u32::MAX as u64).is_ok());
        let err = count_u32("category members", u32::MAX as u64 + 1).unwrap_err();
        match err {
            StoreError::CountOverflow { what, count } => {
                assert_eq!(what, "category members");
                assert_eq!(count, u32::MAX as u64 + 1);
            }
            other => panic!("expected CountOverflow, got {other:?}"),
        }
        assert!(err.to_string().contains("category members"));
    }

    #[test]
    fn stream_writer_rejects_offsets_past_u32() {
        // Declared m pushes the cumulative-degree offsets past u32::MAX;
        // the old `as u32` silently wrapped here and produced a corrupt
        // but checksummed file.
        let m = 6_000_000_000u64;
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), 2, m).unwrap();
        w.push_degree(3_000_000_000).unwrap();
        let err = w.push_degree(3_000_000_000).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::CountOverflow {
                    what: "cumulative degree",
                    ..
                }
            ),
            "got {err:?}"
        );
    }
}
