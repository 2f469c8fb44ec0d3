//! The structured program representation the fuzzer generates and shrinks.
//!
//! A [`ProgramSpec`] is a tree of control-flow regions over concrete
//! instruction words. The tree shape guarantees termination by construction:
//! every branch is forward except loop back-edges, and every loop decrements
//! a dedicated counter register initialized immediately before the loop
//! head, so a built program always reaches its final halt within a bounded
//! step count. [`build`] lowers the tree, with a [`Target`]'s templates and a
//! label-resolving pass over its ISA's branch forms, into a valid
//! [`ObjectModule`] with function metadata and jump tables, ready for the
//! compressor.
//!
//! Keeping the *spec* (rather than a raw seed or instruction list) as the
//! unit of shrinking means every shrink candidate is a well-formed,
//! terminating program — the minimizer never has to reason about dangling
//! branches.

use codense_isa::asm::{patch_branch, PatchError};
use codense_isa::IsaRef;
use codense_obj::{FunctionInfo, JumpTable, ObjectModule};

use crate::target::Target;

/// Data-memory size the differential oracle instantiates (1 MiB).
pub const MEM_BYTES: usize = 1 << 20;
/// Base of the scratch read/write data region generated code addresses.
pub const DATA_BASE: u32 = 0x0004_0000;
/// Mask applied to indexed-access offsets (keeps EAs inside the scratch
/// region, word-aligned).
pub const DATA_MASK: u16 = 0x7FFC;
/// Base address where the oracle materializes jump tables in data memory.
pub const JT_BASE: u32 = 0x0008_0000;

/// First [`Target::loop_regs`] index available to non-entry functions.
pub const CALLEE_LOOP_BASE: usize = 2;

/// One region of a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Straight-line instruction words (no control flow).
    Straight(Vec<u32>),
    /// A call to the function with this index (call depth is 1: only the
    /// entry function calls, callees are leaves).
    Call(usize),
    /// A counted loop: the body repeats `trips` times via a dedicated
    /// counter register chosen by nesting depth.
    Loop {
        /// Iteration count (≥ 1).
        trips: u8,
        /// Loop body.
        body: Vec<Node>,
    },
    /// A forward conditional region: `test` ends in a relative branch that
    /// skips over `then` when taken.
    If {
        /// Condition setup words, then the skip branch (displacement 0).
        test: Vec<u32>,
        /// Region executed when the skip branch falls through.
        then: Vec<Node>,
    },
    /// A jump-table dispatch: the index register is masked to the table
    /// size (a power of two), the table entry is loaded from data memory,
    /// and an indirect jump selects one arm. Every arm jumps forward to a
    /// common join point.
    Dispatch {
        /// Register supplying the (unmasked) case index.
        index: u8,
        /// One region per table entry; `arms.len()` is a power of two.
        arms: Vec<Vec<Node>>,
    },
}

/// One function of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpec {
    /// Whether to emit the target's stack-frame prologue/epilogue,
    /// exercising the paper's prologue/epilogue patterns.
    pub frame: bool,
    /// Body regions, executed in order.
    pub body: Vec<Node>,
}

/// A whole generated program. Function 0 is the entry; it halts with the
/// exit code taken from `result_reg`. All other functions are leaves ending
/// in a return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Functions; index 0 is the entry point.
    pub funcs: Vec<FuncSpec>,
    /// Initial register values, materialized in the entry preamble.
    pub reg_init: Vec<(u8, u32)>,
    /// Register whose value becomes the exit code.
    pub result_reg: u8,
}

impl ProgramSpec {
    /// Total instruction-ish size (used to report shrink progress).
    pub fn weight(&self) -> usize {
        fn nodes(v: &[Node]) -> usize {
            v.iter()
                .map(|n| match n {
                    Node::Straight(ops) => ops.len(),
                    Node::Call(_) => 1,
                    Node::Loop { body, .. } => 2 + nodes(body),
                    Node::If { test, then } => test.len() + nodes(then),
                    Node::Dispatch { arms, .. } => {
                        7 + arms.iter().map(|a| 1 + nodes(a)).sum::<usize>()
                    }
                })
                .sum()
        }
        self.funcs.iter().map(|f| nodes(&f.body) + if f.frame { 5 } else { 1 }).sum::<usize>()
            + 2 * self.reg_init.len()
    }
}

/// A built program: the module plus the memory addresses where the oracle
/// must materialize each jump table.
#[derive(Debug, Clone)]
pub struct BuiltProgram {
    /// The assembled, validated module.
    pub module: ObjectModule,
    /// Data-memory address of each `module.jump_tables[t]`.
    pub table_addrs: Vec<u32>,
}

/// Errors lowering a spec to a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch displacement does not fit its field, or a template that
    /// must end in a relative branch does not.
    Asm(String),
    /// The finished module failed [`ObjectModule::validate_with`].
    Module(String),
    /// The spec violates a structural invariant (bad callee index, loop
    /// nesting too deep, non-power-of-two dispatch width).
    Structure(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Asm(e) => write!(f, "assembly failed: {e}"),
            BuildError::Module(e) => write!(f, "invalid module: {e}"),
            BuildError::Structure(e) => write!(f, "malformed spec: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Instruction words with numbered labels. Each fixup names a word ending
/// a template — a relative branch with displacement 0 — and the label it
/// targets; [`Asm::finish`] aims it with [`patch_branch`], the resolver the
/// backends' assemblers share.
struct Asm {
    isa: IsaRef,
    code: Vec<u32>,
    /// Word index of each label, once bound.
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        self.labels[label] = Some(self.code.len());
    }

    /// Emits `words`, whose last word branches to `label`.
    fn branch(&mut self, words: &[u32], label: usize) -> Result<(), BuildError> {
        if words.is_empty() {
            return Err(BuildError::Structure("branch template is empty".into()));
        }
        self.code.extend_from_slice(words);
        self.fixups.push((self.code.len() - 1, label));
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<u32>, BuildError> {
        for &(at, label) in &self.fixups {
            let word = self.code[at];
            let Some(target) = self.labels[label] else {
                return Err(BuildError::Asm(format!("branch at {at} targets an unbound label")));
            };
            self.code[at] = patch_branch(&*self.isa, word, at, target).map_err(|e| {
                BuildError::Asm(match e {
                    PatchError::NotABranch => format!("word {at} ({word:#010x}) is not a branch"),
                    PatchError::OutOfRange(units) => {
                        format!("branch at {at} out of range ({units})")
                    }
                })
            })?;
        }
        Ok(self.code)
    }
}

struct Lowering<'a> {
    target: &'a dyn Target,
    a: Asm,
    /// Per-table arm-entry labels.
    tables: Vec<Vec<usize>>,
    /// Index into [`Target::loop_regs`] for depth-0 loops of the current
    /// function.
    loop_base: usize,
}

impl Lowering<'_> {
    fn emit_body(&mut self, nodes: &[Node], depth: usize) -> Result<(), BuildError> {
        let t = self.target;
        for node in nodes {
            match node {
                Node::Straight(ops) => self.a.code.extend_from_slice(ops),
                // Function `i` owns label `i`.
                Node::Call(callee) => self.a.branch(&[t.call()], *callee)?,
                Node::Loop { trips, body } => {
                    let Some(&counter) = t.loop_regs().get(self.loop_base + depth) else {
                        return Err(BuildError::Structure("loop nesting too deep".into()));
                    };
                    self.a.code.push(t.loop_init(counter, (*trips).max(1)));
                    let head = self.a.label();
                    self.a.bind(head);
                    self.emit_body(body, depth + 1)?;
                    self.a.branch(&t.loop_back(counter), head)?;
                }
                Node::If { test, then } => {
                    let join = self.a.label();
                    self.a.branch(test, join)?;
                    self.emit_body(then, depth)?;
                    self.a.bind(join);
                }
                Node::Dispatch { index, arms } => {
                    if !arms.len().is_power_of_two() {
                        return Err(BuildError::Structure(
                            "dispatch width must be a power of two".into(),
                        ));
                    }
                    let addr =
                        JT_BASE + 4 * self.tables.iter().map(|t| t.len() as u32).sum::<u32>();
                    self.a.code.extend(t.dispatch(*index, arms.len(), addr));
                    let join = self.a.label();
                    let mut entries = Vec::with_capacity(arms.len());
                    for arm in arms {
                        let entry = self.a.label();
                        self.a.bind(entry);
                        entries.push(entry);
                        self.a.code.extend(t.arm_entry());
                        self.emit_body(arm, depth)?;
                        self.a.branch(&[t.jump()], join)?;
                    }
                    self.a.bind(join);
                    self.tables.push(entries);
                }
            }
        }
        Ok(())
    }
}

/// Lowers a spec into a runnable module for `target`, validated under its
/// ISA.
///
/// # Errors
///
/// Returns a [`BuildError`] if the spec violates a structural invariant or
/// produces an out-of-range branch.
pub fn build(target: &dyn Target, spec: &ProgramSpec) -> Result<BuiltProgram, BuildError> {
    for func in &spec.funcs {
        check_calls(&func.body, spec.funcs.len())?;
    }
    let isa = target.isa();
    let a = Asm { isa, code: Vec::new(), labels: Vec::new(), fixups: Vec::new() };
    let mut lower = Lowering { target, a, tables: Vec::new(), loop_base: 0 };
    for _ in &spec.funcs {
        lower.a.label();
    }
    let (frame_prologue, frame_epilogue) = target.frame();
    let mut functions: Vec<FunctionInfo> = Vec::new();

    for (fi, func) in spec.funcs.iter().enumerate() {
        lower.loop_base = if fi == 0 { 0 } else { CALLEE_LOOP_BASE };
        let start = lower.a.code.len();
        lower.a.bind(fi);
        let prologue = match fi {
            0 => target.entry_prologue(&spec.reg_init),
            _ if func.frame => frame_prologue.clone(),
            _ => Vec::new(),
        };
        lower.a.code.extend_from_slice(&prologue);
        lower.emit_body(&func.body, 0)?;
        let epi_start = lower.a.code.len();
        if fi == 0 {
            lower.a.code.extend(target.exit(spec.result_reg));
        } else {
            if func.frame {
                lower.a.code.extend_from_slice(&frame_epilogue);
            }
            lower.a.code.push(target.ret());
        }
        let end = lower.a.code.len();
        functions.push(FunctionInfo {
            name: format!("fn_{fi}"),
            start,
            end,
            prologue_len: prologue.len(),
            epilogues: std::iter::once(epi_start..end).collect(),
        });
    }

    // Resolve jump-table entry labels to instruction indices.
    let mut jump_tables = Vec::with_capacity(lower.tables.len());
    let mut table_addrs = Vec::with_capacity(lower.tables.len());
    let mut next_addr = JT_BASE;
    for entries in &lower.tables {
        let targets: Vec<usize> =
            entries.iter().map(|&l| lower.a.labels[l].expect("arm labels are bound")).collect();
        table_addrs.push(next_addr);
        next_addr += 4 * targets.len() as u32;
        jump_tables.push(JumpTable { targets });
    }

    let mut module = ObjectModule::new("fuzz", isa.id());
    module.code = lower.a.finish()?;
    module.functions = functions;
    module.jump_tables = jump_tables;
    module.validate_with(isa).map_err(|e| BuildError::Module(e.to_string()))?;
    Ok(BuiltProgram { module, table_addrs })
}

fn check_calls(nodes: &[Node], funcs: usize) -> Result<(), BuildError> {
    for node in nodes {
        match node {
            Node::Call(c) if *c == 0 || *c >= funcs => {
                return Err(BuildError::Structure(format!("bad callee index {c}")));
            }
            Node::Loop { body, .. } => check_calls(body, funcs)?,
            Node::If { then, .. } => check_calls(then, funcs)?,
            Node::Dispatch { arms, .. } => {
                for arm in arms {
                    check_calls(arm, funcs)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Mips, Ppc};
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{R0, R5};

    fn addi(rt: codense_ppc::reg::Gpr, ra: codense_ppc::reg::Gpr, si: i16) -> u32 {
        codense_ppc::encode(&Insn::Addi { rt, ra, si })
    }

    fn tiny_spec() -> ProgramSpec {
        ProgramSpec {
            funcs: vec![FuncSpec {
                frame: false,
                body: vec![
                    Node::Straight(vec![addi(R5, R0, 7)]),
                    Node::Loop { trips: 3, body: vec![Node::Straight(vec![addi(R5, R5, 1)])] },
                ],
            }],
            reg_init: vec![(5, 0x10)],
            result_reg: 5,
        }
    }

    #[test]
    fn tiny_spec_builds_and_validates() {
        let built = build(&Ppc, &tiny_spec()).unwrap();
        assert!(built.module.validate_with(Ppc.isa()).is_ok());
        assert_eq!(built.module.functions.len(), 1);
        assert!(built.module.code.len() >= 8);
    }

    #[test]
    fn dispatch_allocates_tables_on_both_targets() {
        for target in [&Ppc as &dyn Target, &Mips] {
            let op = target.loop_init(target.data_regs()[1], 1);
            let spec = ProgramSpec {
                funcs: vec![FuncSpec {
                    frame: false,
                    body: vec![Node::Dispatch {
                        index: target.data_regs()[0],
                        arms: vec![vec![Node::Straight(vec![op])], vec![Node::Straight(vec![op])]],
                    }],
                }],
                reg_init: vec![(target.data_regs()[0], 1)],
                result_reg: target.data_regs()[1],
            };
            let built = build(target, &spec).unwrap();
            assert_eq!(built.module.jump_tables.len(), 1);
            assert_eq!(built.module.jump_tables[0].targets.len(), 2);
            assert_eq!(built.table_addrs, vec![JT_BASE]);
        }
    }

    #[test]
    fn branches_resolve_to_their_labels() {
        for target in [&Ppc as &dyn Target, &Mips] {
            // A one-instruction loop body (any non-branch word will do).
            let marker = target.loop_init(target.data_regs()[0], 7);
            let spec = ProgramSpec {
                funcs: vec![FuncSpec {
                    frame: false,
                    body: vec![Node::Loop { trips: 3, body: vec![Node::Straight(vec![marker])] }],
                }],
                reg_init: Vec::new(),
                result_reg: target.data_regs()[0],
            };
            let code = build(target, &spec).unwrap().module.code;
            // The back-edge closes the loop right before the two-word exit
            // and must land on the head: the marker after the counter init.
            let back = code.len() - 3;
            let info = target.isa().rel_branch_info(code[back]).expect("back-edge");
            let head = code.iter().position(|&w| w == marker).unwrap();
            assert_eq!(
                back as i64 + i64::from(info.offset / 4),
                head as i64,
                "{}",
                target.isa().name()
            );
        }
    }

    #[test]
    fn bad_callee_rejected() {
        let mut spec = tiny_spec();
        spec.funcs[0].body.push(Node::Call(9));
        assert!(matches!(build(&Ppc, &spec), Err(BuildError::Structure(_))));
    }
}
