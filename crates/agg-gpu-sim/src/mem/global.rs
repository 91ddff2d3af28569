//! Global (device) memory.
//!
//! Buffers are flat arrays of `AtomicU32`. Plain loads/stores use relaxed
//! atomic accesses, so a launch reads and writes every buffer through a
//! shared `&GlobalMemory` — matching the memory model a real GPU gives
//! concurrent blocks (no ordering guarantees, word-level atomicity).

use crate::error::SimError;
use std::sync::atomic::{AtomicU32, Ordering};

/// Handle to a device buffer (word-addressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub(crate) u32);

impl DevicePtr {
    /// The raw buffer id (useful for debugging output).
    pub fn id(&self) -> u32 {
        self.0
    }
}

/// One allocation.
pub(crate) struct Buffer {
    pub(crate) label: String,
    pub(crate) data: Vec<AtomicU32>,
}

/// All allocations of a device.
#[derive(Default)]
pub struct GlobalMemory {
    buffers: Vec<Buffer>,
}

impl GlobalMemory {
    /// Creates empty device memory.
    pub fn new() -> GlobalMemory {
        GlobalMemory {
            buffers: Vec::new(),
        }
    }

    /// Allocates `len` zeroed words.
    pub fn alloc(&mut self, label: impl Into<String>, len: usize) -> DevicePtr {
        let data = (0..len).map(|_| AtomicU32::new(0)).collect();
        self.buffers.push(Buffer {
            label: label.into(),
            data,
        });
        DevicePtr((self.buffers.len() - 1) as u32)
    }

    /// Allocates and fills from a host slice.
    pub fn alloc_from_slice(&mut self, label: impl Into<String>, src: &[u32]) -> DevicePtr {
        let data = src.iter().map(|&v| AtomicU32::new(v)).collect();
        self.buffers.push(Buffer {
            label: label.into(),
            data,
        });
        DevicePtr((self.buffers.len() - 1) as u32)
    }

    /// Allocates `len` words all set to `fill`.
    pub fn alloc_filled(&mut self, label: impl Into<String>, len: usize, fill: u32) -> DevicePtr {
        let data = (0..len).map(|_| AtomicU32::new(fill)).collect();
        self.buffers.push(Buffer {
            label: label.into(),
            data,
        });
        DevicePtr((self.buffers.len() - 1) as u32)
    }

    pub(crate) fn buffer(&self, ptr: DevicePtr) -> Result<&Buffer, SimError> {
        self.buffers
            .get(ptr.0 as usize)
            .ok_or(SimError::BadPointer {
                detail: format!("buffer id {} was never allocated", ptr.0),
            })
    }

    /// Buffer length in words.
    pub fn len(&self, ptr: DevicePtr) -> Result<usize, SimError> {
        Ok(self.buffer(ptr)?.data.len())
    }

    /// True if the buffer has zero words.
    pub fn is_empty(&self, ptr: DevicePtr) -> Result<bool, SimError> {
        Ok(self.len(ptr)? == 0)
    }

    /// Buffer label.
    pub fn label(&self, ptr: DevicePtr) -> Result<&str, SimError> {
        Ok(&self.buffer(ptr)?.label)
    }

    /// Copies the buffer to the host.
    pub fn read(&self, ptr: DevicePtr) -> Result<Vec<u32>, SimError> {
        Ok(self
            .buffer(ptr)?
            .data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect())
    }

    /// Copies the first `words` words of the buffer to the host (for
    /// draining variable-length staging buffers without touching the
    /// unused tail).
    pub fn read_prefix(&self, ptr: DevicePtr, words: usize) -> Result<Vec<u32>, SimError> {
        let b = self.buffer(ptr)?;
        if words > b.data.len() {
            return Err(SimError::ArgumentMismatch {
                detail: format!(
                    "prefix read of {} words from buffer '{}' of {} words",
                    words,
                    b.label,
                    b.data.len()
                ),
            });
        }
        Ok(b.data[..words]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect())
    }

    /// Reads one word.
    pub fn read_word(&self, ptr: DevicePtr, index: usize) -> Result<u32, SimError> {
        let b = self.buffer(ptr)?;
        b.data
            .get(index)
            .map(|a| a.load(Ordering::Relaxed))
            .ok_or_else(|| SimError::OutOfBounds {
                kernel: "<host read>".into(),
                buffer: b.label.clone(),
                index: index as u64,
                len: b.data.len(),
            })
    }

    /// Overwrites the buffer from a host slice (must be the same length).
    pub fn write(&self, ptr: DevicePtr, src: &[u32]) -> Result<(), SimError> {
        let b = self.buffer(ptr)?;
        if src.len() != b.data.len() {
            return Err(SimError::ArgumentMismatch {
                detail: format!(
                    "write of {} words into buffer '{}' of {} words",
                    src.len(),
                    b.label,
                    b.data.len()
                ),
            });
        }
        for (dst, &v) in b.data.iter().zip(src) {
            dst.store(v, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Overwrites the first `src.len()` words of the buffer; the tail
    /// keeps its contents. Errors if the buffer is shorter than `src`.
    pub fn write_prefix(&self, ptr: DevicePtr, src: &[u32]) -> Result<(), SimError> {
        let b = self.buffer(ptr)?;
        if src.len() > b.data.len() {
            return Err(SimError::ArgumentMismatch {
                detail: format!(
                    "prefix write of {} words into buffer '{}' of {} words",
                    src.len(),
                    b.label,
                    b.data.len()
                ),
            });
        }
        for (dst, &v) in b.data.iter().zip(src) {
            dst.store(v, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Sets every word of the buffer to `fill` (device-side memset).
    pub fn fill(&self, ptr: DevicePtr, fill: u32) -> Result<(), SimError> {
        for w in &self.buffer(ptr)?.data {
            w.store(fill, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes one word.
    pub fn write_word(&self, ptr: DevicePtr, index: usize, value: u32) -> Result<(), SimError> {
        let b = self.buffer(ptr)?;
        let cell = b.data.get(index).ok_or_else(|| SimError::OutOfBounds {
            kernel: "<host write>".into(),
            buffer: b.label.clone(),
            index: index as u64,
            len: b.data.len(),
        })?;
        cell.store(value, Ordering::Relaxed);
        Ok(())
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.buffers.len()
    }

    /// Total allocated words across buffers.
    pub fn total_words(&self) -> usize {
        self.buffers.iter().map(|b| b.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_round_trip() {
        let mut m = GlobalMemory::new();
        let p = m.alloc_from_slice("x", &[1, 2, 3]);
        assert_eq!(m.read(p).unwrap(), vec![1, 2, 3]);
        m.write(p, &[4, 5, 6]).unwrap();
        assert_eq!(m.read(p).unwrap(), vec![4, 5, 6]);
        assert_eq!(m.len(p).unwrap(), 3);
        assert_eq!(m.label(p).unwrap(), "x");
    }

    #[test]
    fn alloc_zeroed_and_filled() {
        let mut m = GlobalMemory::new();
        let z = m.alloc("z", 4);
        assert_eq!(m.read(z).unwrap(), vec![0; 4]);
        let f = m.alloc_filled("f", 3, u32::MAX);
        assert_eq!(m.read(f).unwrap(), vec![u32::MAX; 3]);
        m.fill(z, 9).unwrap();
        assert_eq!(m.read(z).unwrap(), vec![9; 4]);
    }

    #[test]
    fn word_access_bounds_checked() {
        let mut m = GlobalMemory::new();
        let p = m.alloc("p", 2);
        m.write_word(p, 1, 42).unwrap();
        assert_eq!(m.read_word(p, 1).unwrap(), 42);
        assert!(m.read_word(p, 2).is_err());
        assert!(m.write_word(p, 9, 0).is_err());
    }

    #[test]
    fn write_length_mismatch_rejected() {
        let mut m = GlobalMemory::new();
        let p = m.alloc("p", 2);
        assert!(m.write(p, &[1, 2, 3]).is_err());
    }

    #[test]
    fn bad_pointer_detected() {
        let m = GlobalMemory::new();
        assert!(m.read(DevicePtr(5)).is_err());
    }

    #[test]
    fn accounting() {
        let mut m = GlobalMemory::new();
        m.alloc("a", 10);
        m.alloc("b", 6);
        assert_eq!(m.allocation_count(), 2);
        assert_eq!(m.total_words(), 16);
    }
}
