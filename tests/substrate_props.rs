//! Property tests for the substrate: the vmem commit-state machine.

use btrace::vmem::{Backing, Region, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum VmemOp {
    Commit { page: usize, pages: usize },
    Decommit { page: usize, pages: usize },
}

fn vmem_ops(total_pages: usize) -> impl Strategy<Value = Vec<VmemOp>> {
    let op = prop_oneof![
        (0..total_pages, 1..4usize).prop_map(|(page, pages)| VmemOp::Commit { page, pages }),
        (0..total_pages, 1..4usize).prop_map(|(page, pages)| VmemOp::Decommit { page, pages }),
    ];
    proptest::collection::vec(op, 1..60)
}

proptest! {
    /// A shadow model of the page bitmap: commit/decommit sequences keep the
    /// region's accounting exactly in sync, and out-of-range ops error
    /// rather than corrupt.
    #[test]
    fn region_commit_state_matches_model(ops in vmem_ops(16)) {
        let total_pages = 16usize;
        let region = Region::reserve_with(total_pages * PAGE_SIZE, Backing::Heap).expect("reserve");
        let mut model = vec![false; total_pages];
        for op in ops {
            match op {
                VmemOp::Commit { page, pages } => {
                    let ok = page + pages <= total_pages;
                    let result = region.commit(page * PAGE_SIZE, pages * PAGE_SIZE);
                    prop_assert_eq!(result.is_ok(), ok);
                    if ok {
                        model[page..page + pages].iter_mut().for_each(|p| *p = true);
                    }
                }
                VmemOp::Decommit { page, pages } => {
                    let ok = page + pages <= total_pages;
                    let result = region.decommit(page * PAGE_SIZE, pages * PAGE_SIZE);
                    prop_assert_eq!(result.is_ok(), ok);
                    if ok {
                        model[page..page + pages].iter_mut().for_each(|p| *p = false);
                    }
                }
            }
            for (page, &committed) in model.iter().enumerate() {
                prop_assert_eq!(region.is_committed(page * PAGE_SIZE), committed, "page {}", page);
            }
            prop_assert_eq!(
                region.committed_bytes(),
                model.iter().filter(|&&c| c).count() * PAGE_SIZE
            );
        }
    }

    /// Committed ranges read back what was written; commit re-zeroes.
    #[test]
    fn committed_pages_hold_data(page in 0usize..8, value in any::<u8>()) {
        let region = Region::reserve_with(8 * PAGE_SIZE, Backing::Heap).expect("reserve");
        region.commit(page * PAGE_SIZE, PAGE_SIZE).expect("commit");
        // SAFETY: the page was just committed; single-threaded test.
        unsafe {
            let p = region.as_ptr().add(page * PAGE_SIZE);
            prop_assert_eq!(*p, 0, "fresh commit must read zero");
            p.write(value);
            prop_assert_eq!(*p, value);
        }
        region.commit(page * PAGE_SIZE, PAGE_SIZE).expect("recommit");
        // SAFETY: as above.
        unsafe {
            prop_assert_eq!(*region.as_ptr().add(page * PAGE_SIZE), 0, "recommit re-zeroes");
        }
    }
}
