//! The data-memory image a run starts from: zeroed words whose cost is
//! the pages the run touches, not the whole memory. The IR interpreter
//! (`asip_ir::interp`) and the machine simulators (`asip_sim`) both take
//! their image from here.
//!
//! A `vec![0; n]` is a `calloc`, and whether `calloc` gets fresh zero pages
//! depends on the allocator's state. glibc serves a request of at least its
//! mmap threshold (128 KiB at start) with an `mmap` of its own, but freeing
//! such a chunk raises the threshold to the chunk's size: one dropped 4 MiB
//! image is enough. From then on every 4 MiB image is an ordinary heap
//! chunk that `calloc` must memset and that stays resident after the run
//! frees it, in whichever of glibc's per-thread arenas served it: ≈190 µs
//! per image, against ≈10 µs to map one and fault in the two pages a short
//! kernel touches (2-vCPU Xeon, glibc 2.36, transparent huge pages on
//! `madvise`).
//!
//! On 64-bit Linux, [`Image`] is therefore an anonymous private mapping:
//! the kernel supplies zero pages on first touch. Dropping an image
//! empties its mapping with `madvise(MADV_DONTNEED)`, which returns the
//! touched pages and leaves every word reading zero, and keeps it as the
//! thread's spare for its next image of the same length; the thread's
//! exit unmaps it. Mapping and unmapping per run instead costs about as
//! much on one thread, but `mmap` and `munmap` take the process's
//! address-space lock for writing, and two threads simulating at once
//! queue on it and sleep: 20,000 map-touch-unmap rounds per thread on two
//! threads slept 2,166 and 46,680 times in two runs, against 4 and 5 for
//! the `madvise` reset (2-vCPU Xeon VM, Linux 6.18). Each new mapping is
//! advised `MADV_NOHUGEPAGE`, so a touch faults in a 4 KiB page even
//! where transparent huge pages are `always`. Elsewhere an image is a
//! plain `Vec`. Either way it dereferences to `[i32]`, so the engines
//! index it like a `Vec`.

use std::ops::{Deref, DerefMut};

/// A zero-initialized data-memory image.
pub struct Image(imp::Words);

impl Image {
    /// `words` zeroed words.
    pub fn zeroed(words: usize) -> Image {
        Image(imp::Words::zeroed(words))
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image").field("words", &self.len()).finish()
    }
}

impl Deref for Image {
    type Target = [i32];

    #[inline]
    fn deref(&self) -> &[i32] {
        self.0.as_slice()
    }
}

impl DerefMut for Image {
    #[inline]
    fn deref_mut(&mut self) -> &mut [i32] {
        self.0.as_mut_slice()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::cell::Cell;
    use std::ffi::c_void;
    use std::ptr::NonNull;

    // <sys/mman.h> on x86_64 and aarch64 Linux.
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_DONTNEED: i32 = 4;
    const MADV_NOHUGEPAGE: i32 = 15;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    thread_local! {
        /// The mapping of the last image this thread dropped, already
        /// emptied, kept for the thread's next image of the same length.
        static SPARE: Cell<Option<Mapping>> = const { Cell::new(None) };
    }

    /// An anonymous private mapping of `len` words that this value owns
    /// alone (`len == 0`: no mapping, a dangling pointer).
    struct Mapping {
        ptr: NonNull<i32>,
        len: usize,
    }

    impl Mapping {
        const NONE: Mapping = Mapping {
            ptr: NonNull::dangling(),
            len: 0,
        };

        fn new(len: usize) -> Mapping {
            if len == 0 {
                return Mapping::NONE;
            }
            let layout = std::alloc::Layout::array::<i32>(len).expect("image size fits a Layout");
            // SAFETY: a fresh anonymous private mapping at a kernel-chosen
            // address aliases no existing memory; the arguments are plain
            // values and the result is checked before use.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    layout.size(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is (void *)-1.
            if p as isize == -1 {
                std::alloc::handle_alloc_error(layout);
            }
            // SAFETY: `p` is the mapping just created, of `layout.size()`
            // bytes. The advice only keeps a first touch from faulting in
            // (and zeroing) a 2 MiB page where transparent huge pages are
            // `always`; a failure leaves the mapping as it was.
            unsafe { madvise(p, layout.size(), MADV_NOHUGEPAGE) };
            Mapping {
                ptr: NonNull::new(p.cast::<i32>()).expect("mmap never returns NULL on success"),
                len,
            }
        }

        fn bytes(&self) -> usize {
            self.len * std::mem::size_of::<i32>()
        }

        /// Drop every page the mapping holds, so that each word reads zero
        /// again; `false` if the kernel refused.
        fn empty(&mut self) -> bool {
            // SAFETY: `ptr` and `bytes()` are exactly the mapping this
            // value owns; `&mut self` means no slice into it is alive, so
            // nothing observes the pages being replaced by zero pages.
            unsafe {
                madvise(
                    self.ptr.as_ptr().cast::<c_void>(),
                    self.bytes(),
                    MADV_DONTNEED,
                ) == 0
            }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len == 0 {
                return;
            }
            // SAFETY: `ptr` and the byte length are exactly what `mmap`
            // returned and was asked for; no slice borrowed from the
            // mapping outlives it. A failing `munmap` only leaks it.
            unsafe {
                munmap(self.ptr.as_ptr().cast::<c_void>(), self.bytes());
            }
        }
    }

    /// `len` zeroed words: this thread's spare mapping when it has one of
    /// that length, else a new one.
    pub(super) struct Words(Mapping);

    impl Words {
        pub(super) fn zeroed(len: usize) -> Words {
            let spare = if len == 0 {
                None
            } else {
                SPARE.try_with(Cell::take).ok().flatten()
            };
            Words(match spare {
                Some(m) if m.len == len => m,
                _ => Mapping::new(len),
            })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[i32] {
            // SAFETY: `ptr` is page-aligned (or dangling for `len == 0`) and
            // covers `len` readable words, each zero-filled by the kernel
            // or since written through this value, so valid as `i32`s; the
            // mapping lives as long as `self`, and `&self` excludes writers.
            unsafe { std::slice::from_raw_parts(self.0.ptr.as_ptr(), self.0.len) }
        }

        #[inline]
        pub(super) fn as_mut_slice(&mut self) -> &mut [i32] {
            // SAFETY: as in `as_slice`, and `&mut self` makes this the only
            // reference into the mapping.
            unsafe { std::slice::from_raw_parts_mut(self.0.ptr.as_ptr(), self.0.len) }
        }
    }

    impl Drop for Words {
        /// Empty the mapping and keep it as the thread's spare; unmap it
        /// if emptying fails or the thread is exiting.
        fn drop(&mut self) {
            let mut m = std::mem::replace(&mut self.0, Mapping::NONE);
            if m.len > 0 && m.empty() {
                let _ = SPARE.try_with(|s| s.set(Some(m)));
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    /// `len` words on the heap.
    pub(super) struct Words(Vec<i32>);

    impl Words {
        pub(super) fn zeroed(len: usize) -> Words {
            Words(vec![0; len])
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[i32] {
            &self.0
        }

        #[inline]
        pub(super) fn as_mut_slice(&mut self) -> &mut [i32] {
            &mut self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_zeroed_writable_and_independent() {
        let mut a = Image::zeroed(1 << 20);
        assert_eq!(a.len(), 1 << 20);
        assert!(a.iter().all(|&w| w == 0));
        a[0] = 7;
        a[(1 << 20) - 1] = -1;
        let b = Image::zeroed(1 << 20);
        assert_eq!((b[0], b[(1 << 20) - 1]), (0, 0));
        assert_eq!((a[0], a[(1 << 20) - 1]), (7, -1));
        assert!(Image::zeroed(0).is_empty());
        // A new image may take the mapping of the one dropped before it.
        drop(b);
        drop(a);
        for words in [1 << 20, 1 << 20, 1 << 10] {
            let mut c = Image::zeroed(words);
            assert_eq!(c.len(), words);
            assert!(c.iter().all(|&w| w == 0));
            c[words / 2] = 3;
            c[words - 1] = 4;
        }
    }
}
