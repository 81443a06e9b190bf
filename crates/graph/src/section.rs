//! Storage-backed slices: owned or memory-mapped.
//!
//! The v2 binary format (see `kpj-store`) maps CSR arrays straight out of a
//! file instead of parsing them onto the heap. [`SectionBuf`] is the seam
//! that makes this transparent to every consumer: a `SectionBuf<T>` derefs
//! to `&[T]` whether the bytes live in a `Box<[T]>` built by
//! [`GraphBuilder`](crate::GraphBuilder) or in a page-aligned region of an
//! mmap'd file kept alive by a shared owner handle.
//!
//! Only plain-old-data element types are usable with the mapped variant
//! (`u32`, `u64`, [`EdgeRef`](crate::EdgeRef) — all `#[repr(C)]`,
//! any-bit-pattern-valid types); the unsafe constructor documents the
//! contract.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A read-only slice of `T` backed either by owned heap memory or by a
/// borrowed region of a memory-mapped file.
///
/// Cloning is cheap for the mapped variant (bumps the owner's refcount) and
/// a full copy for the owned variant — graphs are shared via `Arc<Graph>`
/// on every hot path, so owned clones only happen in tests and tools.
pub struct SectionBuf<T: 'static> {
    inner: Inner<T>,
}

enum Inner<T: 'static> {
    Owned(Box<[T]>),
    Mapped {
        ptr: *const T,
        len: usize,
        /// Keeps the mapping (or other backing storage) alive; dropped last.
        owner: Arc<dyn Any + Send + Sync>,
    },
}

// SAFETY: the mapped variant is a read-only view of immutable memory whose
// lifetime is pinned by `owner` (an `Arc`, itself `Send + Sync`). Sharing or
// sending the view across threads is therefore exactly as safe as sharing
// `&[T]` — sound for `T: Send + Sync`.
unsafe impl<T: Send + Sync + 'static> Send for SectionBuf<T> {}
unsafe impl<T: Send + Sync + 'static> Sync for SectionBuf<T> {}

impl<T: 'static> SectionBuf<T> {
    /// An empty owned buffer.
    pub fn empty() -> Self {
        SectionBuf {
            inner: Inner::Owned(Box::new([])),
        }
    }

    /// Wrap a raw region of backing storage without copying.
    ///
    /// # Safety
    ///
    /// The caller must guarantee, for as long as any clone of `owner` is
    /// alive:
    ///
    /// * `ptr` is non-null, aligned for `T`, and valid for reads of
    ///   `len * size_of::<T>()` bytes;
    /// * the memory is initialized and never mutated (e.g. a `PROT_READ`,
    ///   `MAP_PRIVATE` mapping);
    /// * every bit pattern of the underlying bytes is a valid `T`
    ///   (plain-old-data types only — no references, no niches).
    pub unsafe fn from_raw_parts(
        ptr: *const T,
        len: usize,
        owner: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        debug_assert!(!ptr.is_null());
        debug_assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0);
        SectionBuf {
            inner: Inner::Mapped { ptr, len, owner },
        }
    }

    /// True if this buffer borrows a mapped region rather than owning heap
    /// memory (used by tests asserting the zero-copy property).
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// Mutable view of an owned buffer; `None` for a mapped one, whose
    /// bytes are read-only by contract. Only a uniquely owned value can
    /// reach this, so recycling a retired buffer never races a reader.
    pub fn as_mut_slice(&mut self) -> Option<&mut [T]> {
        match &mut self.inner {
            Inner::Owned(b) => Some(b),
            Inner::Mapped { .. } => None,
        }
    }

    /// The slice view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(b) => b,
            // SAFETY: upheld by the `from_raw_parts` contract; `owner` is
            // alive because `self` holds it.
            Inner::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: 'static> Deref for SectionBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: 'static> From<Box<[T]>> for SectionBuf<T> {
    fn from(b: Box<[T]>) -> Self {
        SectionBuf {
            inner: Inner::Owned(b),
        }
    }
}

impl<T: 'static> From<Vec<T>> for SectionBuf<T> {
    fn from(v: Vec<T>) -> Self {
        SectionBuf {
            inner: Inner::Owned(v.into_boxed_slice()),
        }
    }
}

impl<T: Clone + 'static> Clone for SectionBuf<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(b) => SectionBuf {
                inner: Inner::Owned(b.clone()),
            },
            Inner::Mapped { ptr, len, owner } => SectionBuf {
                inner: Inner::Mapped {
                    ptr: *ptr,
                    len: *len,
                    owner: Arc::clone(owner),
                },
            },
        }
    }
}

impl<T: fmt::Debug + 'static> fmt::Debug for SectionBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SectionBuf")
            .field("mapped", &self.is_mapped())
            .field("len", &self.as_slice().len())
            .finish()
    }
}

impl<T: PartialEq + 'static> PartialEq for SectionBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq + 'static> Eq for SectionBuf<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip() {
        let b: SectionBuf<u32> = vec![1, 2, 3].into();
        assert_eq!(&*b, &[1, 2, 3]);
        assert!(!b.is_mapped());
        assert_eq!(b.clone(), b);
    }

    #[test]
    fn mapped_view_tracks_owner() {
        // Simulate a mapping with a heap buffer owned by an Arc.
        let backing: Arc<Vec<u32>> = Arc::new(vec![10, 20, 30, 40]);
        let owner: Arc<dyn Any + Send + Sync> = backing.clone();
        let buf = unsafe { SectionBuf::from_raw_parts(backing.as_ptr().add(1), 2, owner) };
        assert!(buf.is_mapped());
        assert_eq!(&*buf, &[20, 30]);
        let clone = buf.clone();
        drop(buf);
        assert_eq!(&*clone, &[20, 30]);
        assert_eq!(Arc::strong_count(&backing), 2); // backing + clone's owner
    }

    #[test]
    fn empty_buffer() {
        let b: SectionBuf<u64> = SectionBuf::empty();
        assert!(b.is_empty());
        assert!(!b.is_mapped());
    }
}
