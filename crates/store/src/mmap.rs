//! Minimal read-only file mapping, no external dependencies.
//!
//! On Unix this calls `mmap(2)` directly (std already links libc); the
//! mapping is `PROT_READ`/`MAP_PRIVATE`, so the kernel pages CSR sections
//! in on demand and shares clean pages across processes. On other
//! platforms it degrades to reading the file into an owned buffer — same
//! API, same zero-copy `SectionBuf` views into the buffer, just without
//! demand paging.
//!
//! The v2 format is little-endian on disk and mapped bytes are
//! reinterpreted as native-endian integers, so the zero-copy reader is
//! little-endian-only (checked at compile time below). The *writer* always
//! emits little-endian explicitly and works anywhere.

#[cfg(target_endian = "big")]
compile_error!("kpj-store's zero-copy reader requires a little-endian target");

use std::fs::File;
use std::io;

/// A read-only view of an entire file.
#[derive(Debug)]
pub(crate) struct Mmap {
    inner: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapped region is immutable (`PROT_READ`, `MAP_PRIVATE`) for
// the lifetime of the struct and is unmapped exactly once on drop, so
// sharing the view across threads is as safe as sharing `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mmap {
    /// Map `file` (its full current length) read-only.
    ///
    /// Empty files get an empty heap backing — `mmap(2)` rejects
    /// zero-length mappings, and callers reject them as truncated anyway.
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to map on this platform",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mmap {
                inner: Backing::Heap(Vec::new()),
            });
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is a valid open file, len is its exact size, and we
            // request a fresh read-only private mapping (addr = NULL).
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                inner: Backing::Mapped {
                    ptr: ptr as *mut u8,
                    len,
                },
            })
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut buf = Vec::with_capacity(len);
            let mut file = file;
            file.read_to_end(&mut buf)?;
            Ok(Mmap {
                inner: Backing::Heap(buf),
            })
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap that lives until
            // drop; the region is immutable.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v,
        }
    }

    /// True when backed by a real kernel mapping (false for the portable
    /// heap fallback and empty files).
    #[cfg(test)]
    fn is_kernel_mapping(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Heap(_) => false,
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.inner {
            // SAFETY: exactly the region returned by mmap, unmapped once.
            unsafe {
                sys::munmap(ptr as *mut _, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("kpj-mmap-test-{}", std::process::id()));
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(b"hello mapping").unwrap();
        }
        let f = File::open(&path).unwrap();
        let m = Mmap::map(&f).unwrap();
        assert_eq!(m.as_slice(), b"hello mapping");
        #[cfg(unix)]
        assert!(m.is_kernel_mapping());
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_empty() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("kpj-mmap-empty-{}", std::process::id()));
        File::create(&path).unwrap();
        let f = File::open(&path).unwrap();
        let m = Mmap::map(&f).unwrap();
        assert!(m.as_slice().is_empty());
        assert!(!m.is_kernel_mapping());
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }
}
