//! Read-only memory mapping for `.replay` files.
//!
//! The v3 columnar format ([`crate::v3`]) replays straight out of the page
//! cache: a [`Mmap`] wraps an `mmap(2)` of the whole file and dereferences to
//! `&[u8]`, so a fleet of serve workers replaying the same multi-GB trace
//! shares one physical copy instead of N decoded `Vec<Bunch>` heaps.
//!
//! The workspace vendors no `libc`/`memmap2`, so the mapping is made with a
//! raw Linux syscall (`asm!`) on x86_64/aarch64 and falls back to reading the
//! file into an anonymous heap buffer elsewhere — same API, same lifetime
//! rules, just without the shared page cache. [`Mmap::is_mapped`] reports
//! which path was taken so benches and tests can tell.
//!
//! # Safety argument
//!
//! A mapping of a file that later *shrinks* raises `SIGBUS` on access. The
//! repository sidesteps this by construction: every `.replay` writer in this
//! crate writes to a temporary file and `rename(2)`s it into place
//! ([`crate::replay_format::write_bytes_atomic`]), so a path is only ever replaced by
//! a new inode — existing mappings keep the old inode alive until unmapped,
//! and no inode backing a live [`Mmap`] is ever truncated by this codebase.
//! The mapping is `PROT_READ`/`MAP_PRIVATE`: nothing is ever written through
//! it, and writes by others to the *new* inode are invisible to it.
#![doc = "tracer-invariant: deterministic"]

use std::fs::File;
use std::io;
use std::path::Path;

/// A read-only view of a whole file, memory-mapped where the platform
/// supports it (Linux x86_64/aarch64) and heap-buffered elsewhere — or of an
/// in-memory image handed over by [`Mmap::from_vec`].
pub struct Mmap {
    ptr: *const u8,
    len: usize,
    /// `Some` when the bytes live on the heap (fallback path); `None` when
    /// `ptr` is a real kernel mapping that must be `munmap`ed on drop.
    fallback: Option<Vec<u8>>,
}

// The mapping is immutable for its whole lifetime and `PROT_READ`-only:
// shared references to it from any thread are as safe as `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map (or, on unsupported platforms, read) the entire file at `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        Self::from_file(&file)
    }

    /// Map (or read) an already-open file.
    pub fn from_file(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            // mmap(len=0) is EINVAL; an empty mapping needs no pages.
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                fallback: None,
            });
        }
        sys::map_file(file, len)
    }

    /// Take ownership of bytes already on the heap: the fallback arm with no
    /// file behind it. A synthesised trace encoded in memory replays through
    /// this without touching the filesystem.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self { ptr: bytes.as_ptr(), len: bytes.len(), fallback: Some(bytes) }
    }

    /// `true` when the bytes come from a kernel mapping (shared page cache),
    /// `false` on the heap-buffer fallback.
    pub fn is_mapped(&self) -> bool {
        self.len > 0 && self.fallback.is_none()
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying file was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the lifetime of `self`
        // (kernel mapping unmapped only in Drop, or heap buffer owned by
        // `fallback`), and never written through.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).field("mapped", &self.is_mapped()).finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 && self.fallback.is_none() {
            // SAFETY: ptr/len came from a successful mmap on this platform
            // and are unmapped exactly once.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

/// Real `mmap(2)` via raw syscalls: the workspace vendors no `libc`, and
/// adding one for two syscalls would drag in a dependency the offline build
/// cannot fetch. Linux syscall numbers are a stable ABI.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
mod sys {
    use super::Mmap;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Raw 6-argument syscall. Returns the kernel's raw result; values in
    /// `[-4095, -1]` are `-errno`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a0,
                in("rsi") a1,
                in("rdx") a2,
                in("r10") a3,
                in("r8") a4,
                in("r9") a5,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "svc 0",
                inlateout("x0") a0 => ret,
                in("x1") a1,
                in("x2") a2,
                in("x3") a3,
                in("x4") a4,
                in("x5") a5,
                in("x8") nr,
                options(nostack),
            );
        }
        ret
    }

    pub(super) fn map_file(file: &File, len: usize) -> io::Result<Mmap> {
        let fd = file.as_raw_fd();
        // SAFETY: all arguments are well-formed for mmap(NULL, len,
        // PROT_READ, MAP_PRIVATE, fd, 0); the result is checked below.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if (-4095..0).contains(&ret) {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(Mmap { ptr: ret as usize as *const u8, len, fallback: None })
    }

    pub(super) unsafe fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: caller guarantees (ptr, len) is a live mapping; an error
        // here (impossible for a valid mapping) would only leak it.
        let _ = unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

/// Fallback for platforms without the raw-syscall path (or under Miri, which
/// cannot execute syscalls): read the file into a heap buffer. Loses page
/// cache sharing, keeps the API.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(miri)
)))]
mod sys {
    use super::Mmap;
    use std::fs::File;
    use std::io::{self, Read};

    pub(super) fn map_file(file: &File, len: usize) -> io::Result<Mmap> {
        let mut buf = Vec::with_capacity(len);
        let mut reader = file;
        reader.read_to_end(&mut buf)?;
        Ok(Mmap { ptr: buf.as_ptr(), len: buf.len(), fallback: Some(buf) })
    }

    pub(super) unsafe fn munmap(_ptr: *const u8, _len: usize) {
        unreachable!("fallback buffers are freed by Vec's Drop");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("tracer_mmap_{tag}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn maps_whole_file_contents() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = tmp_file("contents", &payload);
        let map = Mmap::open(&path).unwrap();
        assert_eq!(&*map, &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp_file("empty", b"");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, b"");
        assert!(!map.is_mapped(), "empty views need no kernel mapping");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("tracer_mmap_definitely_absent");
        assert!(Mmap::open(&path).is_err());
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64"),
        not(miri)
    ))]
    #[test]
    fn linux_uses_a_real_mapping() {
        let path = tmp_file("real", b"mapped bytes");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn heap_bytes_are_viewed_in_place() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let ptr = bytes.as_ptr();
        let map = Mmap::from_vec(bytes);
        assert_eq!(map.as_ptr(), ptr, "no copy");
        assert_eq!(map.len(), 256);
        assert!(!map.is_mapped());
        assert!(Mmap::from_vec(Vec::new()).is_empty());
    }

    #[test]
    fn view_is_sendable_across_threads() {
        let path = tmp_file("threads", &vec![7u8; 4096]);
        let map = std::sync::Arc::new(Mmap::open(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&map);
                std::thread::spawn(move || m.iter().map(|b| u64::from(*b)).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7 * 4096);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
