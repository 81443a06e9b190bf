//! Zero-copy v2 reader.
//!
//! `open_v2` maps the file, verifies the meta checksum and section
//! geometry, and reinterprets the CSR sections in place — the only heap
//! allocations are the small sidecar structures (category index, landmark
//! id list, the `StoreBundle` itself). The bulk `data_checksum` is *not*
//! recomputed on open (that would fault in every page of a multi-gigabyte
//! file); call [`StoreBundle::verify_data`] to do it explicitly.

use std::any::Any;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use kpj_graph::{CategoryIndex, EdgeRef, Graph, GraphError, NodeRemap, Reduction, SectionBuf};
use kpj_landmark::LandmarkIndex;

use crate::format::{
    section_id, Fnv64, SectionEntry, StoreError, FLAG_SYMMETRIC, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_ENTRY_LEN, VERSION,
};
use crate::mmap::Mmap;

/// Everything a v2 file (or a heap-loaded DIMACS graph) provides.
#[derive(Debug)]
pub struct StoreBundle {
    /// The graph, CSR sections borrowed from the mapping when possible.
    pub graph: Graph,
    /// Category index, if the file carries one.
    pub categories: Option<CategoryIndex>,
    /// Landmark index (tables mapped zero-copy), if present.
    pub landmarks: Option<LandmarkIndex>,
    /// Locality remap recorded by the reorder pass, if present.
    pub remap: Option<NodeRemap>,
    /// Reduction mapping recorded by `convert --reduce`, if present: the
    /// graph above is the *reduced* graph and queries must translate
    /// through this (see [`kpj_graph::IdTranslation`]).
    pub reduction: Option<Reduction>,
    backing: Option<Arc<Mmap>>,
    data_checksum: u64,
    payload_ranges: Vec<(u64, u64)>,
}

impl StoreBundle {
    /// True when the CSR sections are views into a file mapping rather
    /// than heap copies (always true for `open_v2`, false for heap graphs).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_some()
    }

    /// Recompute the bulk payload checksum and compare to the stored one.
    ///
    /// Touches every payload byte — intended for `kpj-cli info`/`convert`
    /// style tooling, not the serve cold path. A heap graph (no file, no
    /// checksum) trivially passes.
    pub fn verify_data(&self) -> Result<(), StoreError> {
        let Some(backing) = &self.backing else {
            return Ok(());
        };
        let bytes = backing.as_slice();
        let mut fnv = Fnv64::new();
        for &(offset, len) in &self.payload_ranges {
            fnv.update(&bytes[offset as usize..(offset + len) as usize]);
        }
        let computed = fnv.finish();
        if computed != self.data_checksum {
            return Err(StoreError::ChecksumMismatch {
                which: "data",
                stored: self.data_checksum,
                computed,
            });
        }
        Ok(())
    }

    /// Wrap a heap-built graph (DIMACS `.gr` load or in-memory generation).
    pub fn from_heap_graph(graph: Graph) -> Self {
        StoreBundle {
            graph,
            categories: None,
            landmarks: None,
            remap: None,
            reduction: None,
            backing: None,
            data_checksum: 0,
            payload_ranges: Vec::new(),
        }
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn bad_content(message: String) -> StoreError {
    StoreError::Graph(GraphError::Parse { line: 0, message })
}

/// Reinterpret a section as a typed slice, zero-copy.
///
/// Alignment always holds for kernel mappings (page-aligned base +
/// 64-aligned section offset); the heap fallback backing could in theory
/// be misaligned, in which case the section is copied out instead.
fn typed<T: Copy + Send + Sync + 'static>(
    map: &Arc<Mmap>,
    entry: SectionEntry,
) -> Result<SectionBuf<T>, StoreError> {
    let elem = std::mem::size_of::<T>() as u64;
    if entry.len % elem != 0 {
        return Err(StoreError::BadSectionLength {
            section: entry.id,
            len: entry.len,
            elem,
        });
    }
    let count = (entry.len / elem) as usize;
    let bytes = map.as_slice();
    let ptr = bytes[entry.offset as usize..].as_ptr();
    if ptr.align_offset(std::mem::align_of::<T>()) != 0 {
        // Heap-fallback backing with unlucky alignment: copy.
        let mut out = Vec::with_capacity(count);
        let raw = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        // SAFETY: T is plain-old-data (u32/u64/EdgeRef), and we read
        // exactly `len` initialized bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr() as *mut u8, raw.len());
            out.set_len(count);
        }
        return Ok(out.into());
    }
    let owner: Arc<dyn Any + Send + Sync> = Arc::clone(map) as _;
    // SAFETY: the range was bounds-checked against the mapping, the
    // pointer is aligned (checked above), the mapping is immutable and
    // kept alive by `owner`, and T is plain-old-data.
    Ok(unsafe { SectionBuf::from_raw_parts(ptr as *const T, count, owner) })
}

fn parse_categories(payload: &[u8]) -> Result<CategoryIndex, StoreError> {
    let need = |n: usize, at: usize| -> Result<(), StoreError> {
        if at + n > payload.len() {
            Err(StoreError::Truncated {
                need: (at + n) as u64,
                have: payload.len() as u64,
            })
        } else {
            Ok(())
        }
    };
    let mut cats = CategoryIndex::new();
    need(4, 0)?;
    let count = read_u32(payload, 0) as usize;
    let mut at = 4;
    for _ in 0..count {
        need(4, at)?;
        let name_len = read_u32(payload, at) as usize;
        at += 4;
        need(name_len, at)?;
        let name = std::str::from_utf8(&payload[at..at + name_len])
            .map_err(|_| bad_content("category name is not UTF-8".into()))?
            .to_string();
        at += name_len;
        need(4, at)?;
        let members = read_u32(payload, at) as usize;
        at += 4;
        need(members * 4, at)?;
        let mut list = Vec::with_capacity(members);
        for i in 0..members {
            list.push(read_u32(payload, at + i * 4));
        }
        at += members * 4;
        cats.add_category(name, list);
    }
    Ok(cats)
}

/// Open a v2 file with full structural validation; see the module docs.
pub fn open_v2(path: &Path) -> Result<StoreBundle, StoreError> {
    let file = File::open(path)?;
    let map = Arc::new(Mmap::map(&file)?);
    let bytes = map.as_slice();
    let have = bytes.len() as u64;
    if have < HEADER_LEN {
        return Err(StoreError::Truncated {
            need: HEADER_LEN,
            have,
        });
    }
    if &bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let flags = read_u32(bytes, 12);
    let n = read_u64(bytes, 16);
    let m = read_u64(bytes, 24);
    let section_count = read_u32(bytes, 32) as u64;
    if section_count > 1024 {
        return Err(bad_content(format!(
            "implausible section count {section_count}"
        )));
    }
    let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN;
    if have < table_end {
        return Err(StoreError::Truncated {
            need: table_end,
            have,
        });
    }

    let stored_meta = read_u64(bytes, 40);
    let mut fnv = Fnv64::new();
    fnv.update(&bytes[0..40]);
    fnv.update(&bytes[HEADER_LEN as usize..table_end as usize]);
    if fnv.finish() != stored_meta {
        return Err(StoreError::ChecksumMismatch {
            which: "meta",
            stored: stored_meta,
            computed: fnv.finish(),
        });
    }
    let data_checksum = read_u64(bytes, 48);

    let mut entries: Vec<SectionEntry> = Vec::with_capacity(section_count as usize);
    for i in 0..section_count {
        let at = (HEADER_LEN + i * SECTION_ENTRY_LEN) as usize;
        let entry = SectionEntry {
            id: read_u32(bytes, at),
            offset: read_u64(bytes, at + 8),
            len: read_u64(bytes, at + 16),
        };
        if entries.iter().any(|e| e.id == entry.id) {
            return Err(StoreError::DuplicateSection(entry.id));
        }
        if entry.offset % SECTION_ALIGN != 0 {
            return Err(StoreError::Misaligned {
                section: entry.id,
                offset: entry.offset,
            });
        }
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or(StoreError::Truncated {
                need: u64::MAX,
                have,
            })?;
        if end > have {
            return Err(StoreError::Truncated { need: end, have });
        }
        entries.push(entry);
    }
    let find = |id: u32| entries.iter().find(|e| e.id == id).copied();
    let require = |id: u32| find(id).ok_or(StoreError::MissingSection(id));

    let expect_len = |entry: SectionEntry, want: u64| -> Result<SectionEntry, StoreError> {
        if entry.len != want {
            Err(bad_content(format!(
                "section {} has {} bytes, expected {}",
                entry.id, entry.len, want
            )))
        } else {
            Ok(entry)
        }
    };

    let out_offsets: SectionBuf<u32> = typed(
        &map,
        expect_len(require(section_id::OUT_OFFSETS)?, (n + 1) * 4)?,
    )?;
    let out_edges: SectionBuf<EdgeRef> =
        typed(&map, expect_len(require(section_id::OUT_EDGES)?, m * 8)?)?;
    let symmetric = flags & FLAG_SYMMETRIC != 0;
    let (in_offsets, in_edges) = if symmetric {
        (out_offsets.clone(), out_edges.clone())
    } else {
        (
            typed(
                &map,
                expect_len(require(section_id::IN_OFFSETS)?, (n + 1) * 4)?,
            )?,
            typed(&map, expect_len(require(section_id::IN_EDGES)?, m * 8)?)?,
        )
    };
    let graph = Graph::from_sections(out_offsets, out_edges, in_offsets, in_edges)?;

    let categories = match find(section_id::CATEGORIES) {
        Some(entry) => Some(parse_categories(
            &bytes[entry.offset as usize..(entry.offset + entry.len) as usize],
        )?),
        None => None,
    };

    let landmarks = match find(section_id::LANDMARK_META) {
        Some(meta) => {
            let payload = &bytes[meta.offset as usize..(meta.offset + meta.len) as usize];
            if payload.len() < 4 {
                return Err(StoreError::Truncated {
                    need: 4,
                    have: payload.len() as u64,
                });
            }
            let count = read_u32(payload, 0) as usize;
            expect_len(meta, 4 + count as u64 * 4)?;
            let ids: Vec<u32> = (0..count).map(|i| read_u32(payload, 4 + i * 4)).collect();
            let tables: SectionBuf<u64> = typed(
                &map,
                expect_len(require(section_id::LANDMARK_TABLES)?, count as u64 * n * 8)?,
            )?;
            Some(LandmarkIndex::from_raw(ids, tables, n as usize)?)
        }
        None => None,
    };

    let remap = match find(section_id::REMAP_OLD_TO_NEW) {
        Some(o2n) => {
            let o2n: SectionBuf<u32> = typed(&map, expect_len(o2n, n * 4)?)?;
            let n2o: SectionBuf<u32> = typed(
                &map,
                expect_len(require(section_id::REMAP_NEW_TO_OLD)?, n * 4)?,
            )?;
            Some(NodeRemap::from_sections(o2n, n2o)?)
        }
        None => None,
    };

    let reduction = match find(section_id::REDUCE_ORIG_TO_RED) {
        Some(o2r) => {
            if remap.is_some() {
                return Err(bad_content(
                    "file carries both remap and reduction sections".into(),
                ));
            }
            let o2r: SectionBuf<u32> = typed(&map, o2r)?;
            let r2o: SectionBuf<u32> = typed(
                &map,
                expect_len(require(section_id::REDUCE_RED_TO_ORIG)?, n * 4)?,
            )?;
            let offs: SectionBuf<u32> = typed(
                &map,
                expect_len(require(section_id::REDUCE_EXP_OFFSETS)?, (m + 1) * 4)?,
            )?;
            let nodes: SectionBuf<u32> = typed(&map, require(section_id::REDUCE_EXP_NODES)?)?;
            let prefix: SectionBuf<u32> = typed(
                &map,
                expect_len(
                    require(section_id::REDUCE_EXP_PREFIX)?,
                    require(section_id::REDUCE_EXP_NODES)?.len,
                )?,
            )?;
            Some(
                Reduction::from_sections(o2r, r2o, offs, nodes, prefix, &graph)
                    .map_err(|e| bad_content(e.to_string()))?,
            )
        }
        None => None,
    };

    let payload_ranges = entries.iter().map(|e| (e.offset, e.len)).collect();
    Ok(StoreBundle {
        graph,
        categories,
        landmarks,
        remap,
        reduction,
        backing: Some(map),
        data_checksum,
        payload_ranges,
    })
}
