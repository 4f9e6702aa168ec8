//! Canonical structural graph fingerprints.
//!
//! The rewrite↔schedule search re-schedules candidate graphs after every
//! identity rewrite, but a rewrite touches one site — every divide-and-conquer
//! segment outside it is *structurally unchanged* and its schedule can be
//! replayed from a memo instead of re-searched. The memo key is the
//! [`fingerprint`] defined here: a Zobrist-style hash (one mixed key per node
//! position, XOR-combined, like [`crate::ZobristTable`] does for signature
//! sets) of everything the scheduler's cost model can observe:
//!
//! * each node's operation (including weight slices — they change nothing for
//!   scheduling, but keeping them makes the hash a faithful content hash),
//! * each node's output shape (the memory cost `∏(u.shape)`),
//! * each node's predecessor list, in order, and
//! * the explicitly marked outputs (output tensors are never freed, so they
//!   change the footprint accounting).
//!
//! Node and graph *names* are deliberately excluded: two segments that differ
//! only in labels schedule identically. Node ids are canonical — they are
//! topological positions assigned by construction — so id-indexed structure is
//! hashed positionally rather than sorted.
//!
//! Like any 64-bit hash, fingerprints can collide; exact consumers confirm
//! candidates with [`structural_eq`], the equality the fingerprint abstracts,
//! or compare [`Structure`]s: one canonical byte encoding of exactly what
//! [`structural_eq`] compares, so that a stored segment costs one small
//! allocation instead of a whole [`Graph`] and a confirm is a slice compare.

use std::hash::{Hash, Hasher};

use crate::fxhash::FxHasher;
use crate::{
    ChannelRange, Conv2d, DType, Dense, DepthwiseConv2d, Graph, GraphError, Node, NodeId, Op,
    Padding, Pool2d, TensorShape, WeightId, WeightRef,
};

/// Golden-ratio increment used to derive a distinct stream per node position
/// (same constant family as [`crate::ZobristTable`]'s splitmix64 keys).
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(PHI);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One node's contribution to the fingerprint: a position-keyed splitmix of
/// everything the scheduler observes about the node (op, shape, preds).
fn node_contrib(graph: &Graph, id: crate::NodeId) -> u64 {
    let node = graph.node(id);
    let mut h = FxHasher::default();
    // Ops and shapes derive `Hash` (all-integer fields, no floats), so
    // the per-node hash is allocation-free — this runs per segment per
    // candidate on the schedule memo's hot path. Opaque labels are
    // cosmetic (the shape carries the bytes), so they are masked like
    // names by hashing a fixed marker instead of the variant.
    match &node.op {
        Op::Opaque { .. } => h.write_u64(0x4f50_4151_5545_0000),
        op => op.hash(&mut h),
    }
    node.shape.hash(&mut h);
    for &p in graph.preds(id) {
        h.write_u64(p.index() as u64);
    }
    // Zobrist-style: a per-position key stream keeps the combine O(1) per
    // node and makes the accumulator independent of everything but content.
    splitmix64(h.finish() ^ PHI.wrapping_mul(id.index() as u64 + 1))
}

/// Folds per-node contributions plus the length and output terms into the
/// final hash.
fn fold(len: usize, contribs: &[u64], outputs: &[crate::NodeId]) -> u64 {
    let mut acc = splitmix64(len as u64);
    for &c in contribs {
        acc ^= c;
    }
    for &o in outputs {
        acc ^= splitmix64(o.index() as u64 ^ 0xa5a5_a5a5_a5a5_a5a5);
    }
    acc
}

/// Canonical structural hash of `graph` (see the module docs for what is and
/// is not observed). Stable across runs and threads: no pointer values, no
/// `HashMap` iteration order, no randomized state — and allocation-free
/// (this runs per segment per candidate on the schedule memo's hot path;
/// only [`FingerprintCache`] pays to retain the contribution stream).
pub fn fingerprint(graph: &Graph) -> u64 {
    let mut acc = splitmix64(graph.len() as u64);
    for id in graph.node_ids() {
        acc ^= node_contrib(graph, id);
    }
    for &o in graph.explicit_outputs() {
        acc ^= splitmix64(o.index() as u64 ^ 0xa5a5_a5a5_a5a5_a5a5);
    }
    acc
}

/// A [`fingerprint`] kept together with its per-node contribution stream, so
/// that after a graph splice ([`crate::edit::GraphEdit`]) the hash is
/// re-derived by recomputing **only the suffix the splice disturbed** —
/// positions below [`crate::edit::SpliceInfo::first_changed`] are bit-
/// identical in id, op, shape, and predecessor list, so their contributions
/// are reused verbatim.
///
/// The rewrite↔schedule search builds many candidate graphs per iteration,
/// each one splice away from the current graph; carrying a cache per graph
/// turns whole-graph fingerprinting from O(V hashes) per candidate into
/// O(suffix), and is the groundwork for a process-wide compile cache keyed by
/// whole-graph fingerprints (see ROADMAP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintCache {
    hash: u64,
    contribs: Vec<u64>,
}

impl FingerprintCache {
    /// Fingerprints `graph` from scratch, retaining the contribution stream.
    pub fn new(graph: &Graph) -> Self {
        let contribs: Vec<u64> = graph.node_ids().map(|id| node_contrib(graph, id)).collect();
        let hash = fold(graph.len(), &contribs, graph.explicit_outputs());
        FingerprintCache { hash, contribs }
    }

    /// The cached hash — always equal to [`fingerprint`] of the graph this
    /// cache was built (or last updated) from.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Re-fingerprints `spliced` — a graph derived from this cache's graph
    /// by an edit that left every node below `first_changed` untouched (see
    /// [`crate::edit::SpliceInfo::first_changed`]) — reusing the unchanged
    /// prefix. Equal to `FingerprintCache::new(spliced)`, property-checked
    /// in the test suite; a `first_changed` past either graph's length
    /// degrades safely to a full recompute of the differing suffix.
    pub fn update(&self, spliced: &Graph, first_changed: crate::NodeId) -> Self {
        let keep = first_changed.index().min(self.contribs.len()).min(spliced.len());
        let mut contribs = Vec::with_capacity(spliced.len());
        contribs.extend_from_slice(&self.contribs[..keep]);
        for id in (keep..spliced.len()).map(crate::NodeId::from_index) {
            contribs.push(node_contrib(spliced, id));
        }
        let hash = fold(spliced.len(), &contribs, spliced.explicit_outputs());
        FingerprintCache { hash, contribs }
    }
}

/// The exact equality [`fingerprint`] approximates: same node count, and per
/// node the same op, shape, and predecessor list, plus the same explicit
/// output set. Names are ignored, as in the fingerprint.
pub fn structural_eq(a: &Graph, b: &Graph) -> bool {
    if a.len() != b.len() || a.explicit_outputs() != b.explicit_outputs() {
        return false;
    }
    a.node_ids().all(|id| {
        let (na, nb) = (a.node(id), b.node(id));
        let ops_equal = match (&na.op, &nb.op) {
            // Opaque labels are cosmetic, like names.
            (Op::Opaque { .. }, Op::Opaque { .. }) => true,
            (x, y) => x == y,
        };
        ops_equal && na.shape == nb.shape && a.preds(id) == b.preds(id)
    })
}

/// The canonical byte encoding of a graph's structure: exactly what
/// [`structural_eq`] compares, so two graphs encode to equal bytes if and
/// only if they are structurally equal.
///
/// The bytes are LEB128 varints: the node count and the explicit outputs,
/// then per node the op tag and every op field (weight id and both channel
/// slices included), the shape's dims and dtype, and the ordered predecessor
/// list. Node names, the graph name and opaque labels stay out. A schedule
/// store keeps one `Structure` per entry instead of a [`Graph`] clone: one
/// allocation of a few bytes per node, and a hit confirm is a slice compare.
///
/// # Example
///
/// ```
/// use serenity_ir::fingerprint::{structural_eq, Structure};
/// use serenity_ir::Graph;
///
/// # fn main() -> Result<(), serenity_ir::GraphError> {
/// let mut a = Graph::new("a");
/// let x = a.add_opaque("x", 64, &[])?;
/// a.add_opaque("y", 32, &[x])?;
/// let mut b = Graph::new("renamed");
/// let x = b.add_opaque("p", 64, &[])?;
/// b.add_opaque("q", 32, &[x])?;
/// assert_eq!(Structure::of(&a), Structure::of(&b));
/// assert!(structural_eq(&Structure::of(&a).to_graph()?, &a));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Structure(Box<[u8]>);

impl Structure {
    /// Encodes `graph`.
    pub fn of(graph: &Graph) -> Self {
        let mut out = Vec::with_capacity(8 + 16 * graph.len());
        put(&mut out, graph.len() as u64);
        put(&mut out, graph.explicit_outputs().len() as u64);
        for &o in graph.explicit_outputs() {
            put(&mut out, o.index() as u64);
        }
        for node in graph.nodes() {
            put_op(&mut out, &node.op);
            put(&mut out, node.shape.rank() as u64);
            for &d in node.shape.dims() {
                put(&mut out, d as u64);
            }
            out.push(dtype_tag(node.shape.dtype()));
            let preds = graph.preds(node.id);
            put(&mut out, preds.len() as u64);
            for &p in preds {
                put(&mut out, p.index() as u64);
            }
        }
        Structure(out.into_boxed_slice())
    }

    /// Wraps bytes of unknown origin (a snapshot, a test input) without
    /// checking them; [`Structure::to_graph`] is the check.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Structure(bytes.into())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Rebuilds a graph with this structure. Nodes and opaque labels get
    /// placeholder names (`n0`, `n1`, …), so the result is structurally
    /// equal to every graph that encodes to these bytes.
    ///
    /// # Errors
    ///
    /// [`GraphError::MalformedEncoding`] if the bytes are not an encoding
    /// [`Structure::of`] produces: truncated or trailing bytes, an overlong
    /// or overflowing varint, an unknown tag, a predecessor that does not
    /// precede its consumer, a repeated predecessor or output, an op arity
    /// the graph API rejects, or a shape whose byte size overflows.
    pub fn to_graph(&self) -> Result<Graph, GraphError> {
        let mut d = Decoder { bytes: &self.0, at: 0 };
        let len = d.count()?;
        if u32::try_from(len).is_err() {
            return Err(d.fail());
        }
        // `seen[j] == s` marks node j as already listed in list `s` (the
        // outputs are list `len`, node i's predecessors list `i`), so a
        // repeat is caught in O(1) however long the list.
        let mut seen = vec![usize::MAX; len];
        let mut outputs: Vec<NodeId> = Vec::new();
        for _ in 0..d.count()? {
            let o = d.index(len)?;
            if std::mem::replace(&mut seen[o], len) == len {
                return Err(d.fail());
            }
            outputs.push(NodeId::from_index(o));
        }
        let mut nodes = Vec::new();
        let mut preds: Vec<Vec<NodeId>> = Vec::new();
        let mut succs: Vec<Vec<NodeId>> = Vec::new();
        let mut next_weight = 0u32;
        for i in 0..len {
            let id = NodeId::from_index(i);
            let mut op = d.op()?;
            if let Op::Opaque { label } = &mut op {
                *label = id.to_string();
            }
            let dims = (0..d.count()?).map(|_| d.usize()).collect::<Result<Vec<_>, _>>()?;
            let dtype = match d.byte()? {
                0 => DType::F32,
                1 => DType::F16,
                2 => DType::I8,
                3 => DType::U8,
                _ => return Err(d.fail()),
            };
            let bytes =
                dims.iter().try_fold(dtype.size_bytes(), |acc, &x| acc.checked_mul(x as u64));
            if dims.is_empty() || bytes.is_none() {
                return Err(d.fail());
            }
            let mut inputs: Vec<NodeId> = Vec::new();
            for _ in 0..d.count()? {
                let p = d.index(i)?;
                if std::mem::replace(&mut seen[p], i) == i {
                    return Err(d.fail());
                }
                inputs.push(NodeId::from_index(p));
                succs[p].push(id);
            }
            let (min, max) = op.arity();
            if inputs.len() < min || inputs.len() > max {
                return Err(d.fail());
            }
            if let Some(w) = op.weight() {
                next_weight = next_weight.max(w.id.0.saturating_add(1));
            }
            let shape = TensorShape::new(dims, dtype);
            nodes.push(Node { id, name: id.to_string(), op, shape });
            preds.push(inputs);
            succs.push(Vec::new());
        }
        if d.at != d.bytes.len() {
            return Err(d.fail());
        }
        Ok(Graph::from_parts("structure".into(), nodes, preds, succs, outputs, next_weight))
    }
}

/// Appends `v` as an unsigned LEB128 varint.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_pair(out: &mut Vec<u8>, (a, b): (usize, usize)) {
    put(out, a as u64);
    put(out, b as u64);
}

fn put_padding(out: &mut Vec<u8>, padding: Padding) {
    out.push(match padding {
        Padding::Same => 0,
        Padding::Valid => 1,
    });
}

fn put_weight(out: &mut Vec<u8>, weight: &WeightRef) {
    let WeightRef { id, in_slice, kernel_slice } = weight;
    put(out, u64::from(id.0));
    for slice in [in_slice, kernel_slice] {
        match slice {
            None => out.push(0),
            Some(ChannelRange { start, end }) => {
                out.push(1);
                put(out, u64::from(*start));
                put(out, u64::from(*end));
            }
        }
    }
}

fn put_pool(out: &mut Vec<u8>, pool: &Pool2d) {
    let Pool2d { kernel, stride, padding } = pool;
    put_pair(out, *kernel);
    put_pair(out, *stride);
    put_padding(out, *padding);
}

/// Appends the op tag and every field; the match and the struct patterns
/// are exhaustive, so a new variant or field fails to compile here.
fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Input => out.push(0),
        Op::Conv2d(Conv2d { out_channels, kernel, stride, padding, dilation, weight }) => {
            out.push(1);
            put(out, *out_channels as u64);
            put_pair(out, *kernel);
            put_pair(out, *stride);
            put_padding(out, *padding);
            put_pair(out, *dilation);
            put_weight(out, weight);
        }
        Op::DepthwiseConv2d(DepthwiseConv2d { kernel, stride, padding, dilation, weight }) => {
            out.push(2);
            put_pair(out, *kernel);
            put_pair(out, *stride);
            put_padding(out, *padding);
            put_pair(out, *dilation);
            put_weight(out, weight);
        }
        Op::Dense(Dense { out_features, weight }) => {
            out.push(3);
            put(out, *out_features as u64);
            put_weight(out, weight);
        }
        Op::Concat { axis } => {
            out.push(4);
            put(out, *axis as u64);
        }
        Op::Add => out.push(5),
        Op::SlabConcat { axis } => {
            out.push(6);
            put(out, *axis as u64);
        }
        Op::AccumAdd => out.push(7),
        Op::Relu => out.push(8),
        Op::Sigmoid => out.push(9),
        Op::BatchNorm => out.push(10),
        Op::MaxPool2d(pool) => {
            out.push(11);
            put_pool(out, pool);
        }
        Op::AvgPool2d(pool) => {
            out.push(12);
            put_pool(out, pool);
        }
        Op::GlobalAvgPool => out.push(13),
        Op::Identity => out.push(14),
        // Opaque labels are cosmetic, like names.
        Op::Opaque { label: _ } => out.push(15),
    }
}

fn dtype_tag(dtype: DType) -> u8 {
    match dtype {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::I8 => 2,
        DType::U8 => 3,
    }
}

/// Reads a [`Structure`]'s bytes back; every read checks its bounds.
struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Decoder<'_> {
    fn fail(&self) -> GraphError {
        GraphError::MalformedEncoding { offset: self.at }
    }

    fn byte(&mut self) -> Result<u8, GraphError> {
        let b = *self.bytes.get(self.at).ok_or_else(|| self.fail())?;
        self.at += 1;
        Ok(b)
    }

    /// One varint; rejects overlong forms, so every value has one encoding.
    fn uint(&mut self) -> Result<u64, GraphError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.fail());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return if b == 0 && shift > 0 { Err(self.fail()) } else { Ok(v) };
            }
            shift += 7;
        }
    }

    fn usize(&mut self) -> Result<usize, GraphError> {
        usize::try_from(self.uint()?).map_err(|_| self.fail())
    }

    fn u32(&mut self) -> Result<u32, GraphError> {
        u32::try_from(self.uint()?).map_err(|_| self.fail())
    }

    /// A count of items that take at least one byte each, so an untrusted
    /// count can never ask for more than the input holds.
    fn count(&mut self) -> Result<usize, GraphError> {
        let n = self.usize()?;
        if n > self.bytes.len() - self.at {
            return Err(self.fail());
        }
        Ok(n)
    }

    /// A node index below `bound`.
    fn index(&mut self, bound: usize) -> Result<usize, GraphError> {
        let i = self.usize()?;
        if i >= bound {
            return Err(self.fail());
        }
        Ok(i)
    }

    fn pair(&mut self) -> Result<(usize, usize), GraphError> {
        Ok((self.usize()?, self.usize()?))
    }

    fn padding(&mut self) -> Result<Padding, GraphError> {
        match self.byte()? {
            0 => Ok(Padding::Same),
            1 => Ok(Padding::Valid),
            _ => Err(self.fail()),
        }
    }

    fn slice(&mut self) -> Result<Option<ChannelRange>, GraphError> {
        match self.byte()? {
            0 => Ok(None),
            1 => {
                let (start, end) = (self.u32()?, self.u32()?);
                if start > end {
                    return Err(self.fail());
                }
                Ok(Some(ChannelRange { start, end }))
            }
            _ => Err(self.fail()),
        }
    }

    fn weight(&mut self) -> Result<WeightRef, GraphError> {
        let id = WeightId(self.u32()?);
        Ok(WeightRef { id, in_slice: self.slice()?, kernel_slice: self.slice()? })
    }

    fn pool(&mut self) -> Result<Pool2d, GraphError> {
        Ok(Pool2d { kernel: self.pair()?, stride: self.pair()?, padding: self.padding()? })
    }

    fn op(&mut self) -> Result<Op, GraphError> {
        Ok(match self.byte()? {
            0 => Op::Input,
            1 => Op::Conv2d(Conv2d {
                out_channels: self.usize()?,
                kernel: self.pair()?,
                stride: self.pair()?,
                padding: self.padding()?,
                dilation: self.pair()?,
                weight: self.weight()?,
            }),
            2 => Op::DepthwiseConv2d(DepthwiseConv2d {
                kernel: self.pair()?,
                stride: self.pair()?,
                padding: self.padding()?,
                dilation: self.pair()?,
                weight: self.weight()?,
            }),
            3 => Op::Dense(Dense { out_features: self.usize()?, weight: self.weight()? }),
            4 => Op::Concat { axis: self.usize()? },
            5 => Op::Add,
            6 => Op::SlabConcat { axis: self.usize()? },
            7 => Op::AccumAdd,
            8 => Op::Relu,
            9 => Op::Sigmoid,
            10 => Op::BatchNorm,
            11 => Op::MaxPool2d(self.pool()?),
            12 => Op::AvgPool2d(self.pool()?),
            13 => Op::GlobalAvgPool,
            14 => Op::Identity,
            15 => Op::Opaque { label: String::new() },
            _ => return Err(self.fail()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder, Op, TensorShape};

    fn cell(name: &str, relu_name: &str) -> Graph {
        let mut b = GraphBuilder::new(name);
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, 4).unwrap();
        let r = b.conv1x1(x, 4).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        let mut g = b.finish();
        let y = g.add_named(relu_name, Op::Relu, &[cat]).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn names_do_not_matter() {
        let a = cell("a", "relu_a");
        let b = cell("b", "relu_b");
        assert_ne!(a, b, "graphs differ by names");
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert!(structural_eq(&a, &b));
    }

    #[test]
    fn structure_matters() {
        let a = cell("a", "r");
        let mut shuffled = Graph::new("s");
        // Same multiset of nodes, different wiring: swap which conv feeds
        // the concat first.
        let x = shuffled.add_input("x", TensorShape::nhwc(1, 8, 8, 4, DType::F32));
        let l = shuffled.add(a.node(crate::NodeId::from_index(1)).op.clone(), &[x]).unwrap();
        let r = shuffled.add(a.node(crate::NodeId::from_index(2)).op.clone(), &[x]).unwrap();
        let cat = shuffled.add(Op::Concat { axis: 3 }, &[r, l]).unwrap();
        let y = shuffled.add(Op::Relu, &[cat]).unwrap();
        shuffled.mark_output(y);
        assert_ne!(fingerprint(&a), fingerprint(&shuffled));
        assert!(!structural_eq(&a, &shuffled));
    }

    #[test]
    fn shapes_matter() {
        let mut a = Graph::new("a");
        a.add_opaque("n", 10, &[]).unwrap();
        let mut b = Graph::new("b");
        b.add_opaque("n", 20, &[]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert!(!structural_eq(&a, &b));
    }

    #[test]
    fn output_markings_matter() {
        let base = cell("g", "r");
        let mut marked = base.clone();
        marked.mark_output(crate::NodeId::from_index(1));
        assert_ne!(fingerprint(&base), fingerprint(&marked));
        assert!(!structural_eq(&base, &marked));
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let g = cell("g", "r");
        assert_eq!(fingerprint(&g), fingerprint(&g.clone()));
    }

    #[test]
    fn cache_matches_plain_fingerprint() {
        let g = cell("g", "r");
        let cache = FingerprintCache::new(&g);
        assert_eq!(cache.hash(), fingerprint(&g));
    }

    #[test]
    fn incremental_update_equals_scratch_recompute() {
        use crate::edit::GraphEdit;
        let g = cell("g", "r");
        let cache = FingerprintCache::new(&g);

        // Replace the relu tail (last node) with a sigmoid, in place.
        let relu = crate::NodeId::from_index(g.len() - 1);
        let cat = g.preds(relu)[0];
        let mut edit = GraphEdit::new(&g, relu);
        let swapped = edit.add_node("tail", Op::Sigmoid, &[cat]).unwrap();
        edit.redirect(relu, swapped);
        edit.remove(relu);
        let (spliced, info) = edit.finish().unwrap();

        let updated = cache.update(&spliced, info.first_changed);
        assert_eq!(updated.hash(), fingerprint(&spliced));
        assert_eq!(updated, FingerprintCache::new(&spliced));
        assert_ne!(updated.hash(), cache.hash());
    }

    #[test]
    fn update_with_zero_prefix_is_a_full_recompute() {
        let a = cell("a", "r");
        let b = cell_wider();
        let cache = FingerprintCache::new(&a);
        let updated = cache.update(&b, crate::NodeId::from_index(0));
        assert_eq!(updated.hash(), fingerprint(&b));
    }

    #[test]
    fn structure_follows_structural_eq() {
        let a = cell("a", "relu_a");
        assert_eq!(Structure::of(&a), Structure::of(&cell("b", "relu_b")));
        let mut marked = a.clone();
        marked.mark_output(crate::NodeId::from_index(1));
        assert_ne!(Structure::of(&a), Structure::of(&marked));
        assert_ne!(Structure::of(&a), Structure::of(&cell_wider()));
        let mut opaque = Graph::new("o");
        opaque.add_opaque("label-one", 10, &[]).unwrap();
        let mut relabeled = Graph::new("o");
        relabeled.add_opaque("label-two", 10, &[]).unwrap();
        assert_eq!(Structure::of(&opaque), Structure::of(&relabeled));
    }

    #[test]
    fn to_graph_round_trips_with_placeholder_names() {
        let g = cell("g", "r");
        let structure = Structure::of(&g);
        let back = structure.to_graph().unwrap();
        assert!(structural_eq(&back, &g));
        assert_eq!(Structure::of(&back), structure);
        assert_eq!(back.node(crate::NodeId::from_index(2)).name, "n2");
        assert!(back.validate().is_ok());
        assert!(Structure::of(&Graph::new("empty")).to_graph().unwrap().is_empty());
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let bytes = Structure::of(&cell("g", "r")).as_bytes().to_vec();
        for cut in 0..bytes.len() {
            assert!(Structure::from_bytes(&bytes[..cut]).to_graph().is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Structure::from_bytes(&trailing).to_graph().is_err());
        // An overlong zero, a varint past 64 bits, an unknown op tag.
        for bad in [&[0x80, 0x00][..], &[0xff; 11][..], &[1, 0, 99][..]] {
            assert!(matches!(
                Structure::from_bytes(bad).to_graph(),
                Err(GraphError::MalformedEncoding { .. })
            ));
        }
    }

    fn cell_wider() -> Graph {
        let mut b = GraphBuilder::new("w");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, 8).unwrap();
        let r = b.conv1x1(x, 8).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        b.mark_output(cat);
        b.finish()
    }
}
