//! The exploration-space coordinates (the paper's Figure 3): ordering,
//! mapping granularity, and working-set representation.

/// Ordered vs. unordered algorithm (Section IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoOrder {
    /// Process working-set elements in priority order (each node settled
    /// exactly once; needs findmin for SSSP).
    Ordered,
    /// Process the whole working set each iteration; elements may be
    /// re-relaxed (Bellman-Ford style).
    Unordered,
}

/// Work-to-hardware mapping granularity (Section IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// One working-set element per thread; the thread serially visits all
    /// neighbors (divergence-prone on skewed degrees).
    Thread,
    /// One working-set element per thread block; the block's threads
    /// stride over the neighbors cooperatively.
    Block,
}

/// Working-set representation (Section IV.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkSet {
    /// One flag per node; synchronization-free but wasteful when sparse.
    Bitmap,
    /// Compacted id array built with atomic index allocation; dense but
    /// serializing to build.
    Queue,
}

/// One point of the exploration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variant {
    /// Algorithm ordering.
    pub order: AlgoOrder,
    /// Mapping granularity.
    pub mapping: Mapping,
    /// Working-set representation.
    pub workset: WorkSet,
}

impl Variant {
    /// All 8 variants, in the paper's table column order:
    /// `O_T_BM, O_T_QU, O_B_BM, O_B_QU, U_T_BM, U_T_QU, U_B_BM, U_B_QU`.
    pub const ALL: [Variant; 8] = [
        Variant::new(AlgoOrder::Ordered, Mapping::Thread, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Ordered, Mapping::Thread, WorkSet::Queue),
        Variant::new(AlgoOrder::Ordered, Mapping::Block, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Ordered, Mapping::Block, WorkSet::Queue),
        Variant::new(AlgoOrder::Unordered, Mapping::Thread, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Unordered, Mapping::Thread, WorkSet::Queue),
        Variant::new(AlgoOrder::Unordered, Mapping::Block, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Unordered, Mapping::Block, WorkSet::Queue),
    ];

    /// The 4 unordered variants the adaptive runtime selects among
    /// (Section VI.A).
    pub const UNORDERED: [Variant; 4] = [
        Variant::new(AlgoOrder::Unordered, Mapping::Thread, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Unordered, Mapping::Thread, WorkSet::Queue),
        Variant::new(AlgoOrder::Unordered, Mapping::Block, WorkSet::Bitmap),
        Variant::new(AlgoOrder::Unordered, Mapping::Block, WorkSet::Queue),
    ];

    /// Const constructor.
    pub const fn new(order: AlgoOrder, mapping: Mapping, workset: WorkSet) -> Variant {
        Variant {
            order,
            mapping,
            workset,
        }
    }

    /// Position in [`Variant::ALL`].
    pub fn index(&self) -> usize {
        let o = matches!(self.order, AlgoOrder::Unordered) as usize;
        let m = matches!(self.mapping, Mapping::Block) as usize;
        let w = matches!(self.workset, WorkSet::Queue) as usize;
        o * 4 + m * 2 + w
    }

    /// The paper's naming scheme, e.g. `U_B_QU`.
    pub fn name(&self) -> &'static str {
        match self.index() {
            0 => "O_T_BM",
            1 => "O_T_QU",
            2 => "O_B_BM",
            3 => "O_B_QU",
            4 => "U_T_BM",
            5 => "U_T_QU",
            6 => "U_B_BM",
            7 => "U_B_QU",
            _ => unreachable!(),
        }
    }

    /// Parses the paper's naming scheme (case-insensitive).
    pub fn parse(s: &str) -> Option<Variant> {
        let up = s.to_ascii_uppercase();
        Variant::ALL.iter().copied().find(|v| v.name() == up)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_a_bijection_onto_all() {
        for (i, v) in Variant::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn names_round_trip() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Some(v));
            assert_eq!(Variant::parse(&v.name().to_lowercase()), Some(v));
        }
        assert_eq!(Variant::parse("X_Y_Z"), None);
    }

    #[test]
    fn unordered_subset_is_consistent() {
        for v in Variant::UNORDERED {
            assert_eq!(v.order, AlgoOrder::Unordered);
            assert!(Variant::ALL.contains(&v));
        }
    }
}
