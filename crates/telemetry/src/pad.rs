//! [`CachePadded`], the workspace's one cache-line padding wrapper.

/// Pads and aligns a value to 128 bytes, so adjacent atomics never share
/// a cache line. 128 rather than 64: modern x86_64 prefetches line pairs,
/// and big.LITTLE ARM SoCs (the paper's target) have 128-byte lines on
/// some clusters.
#[derive(Debug)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pads and aligns `value`.
    pub const fn new(value: T) -> Self {
        Self(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[test]
fn alignment_is_at_least_128() {
    assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
    assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
    assert_eq!(*CachePadded::new(7u32), 7);
}
