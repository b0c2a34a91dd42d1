(** A simulated CPU core executing GRISC, with cycle-level timing
    through its attached TLB, branch predictor, and cache hierarchy.

    The same core type plays two roles (§3.2):
    - a {b model core}, whose hierarchy reaches only model DRAM and the
      shared IO region, and whose only outbound signal is the [Irq]
      doorbell;
    - a {b hypervisor core}, with its own hierarchy over hypervisor DRAM
      plus a private bus into (halted) model-core DRAM.

    The management operations in {!section-control} implement the seven
    hypervisor-core privileges the paper enumerates: pause, inspect and
    modify ISA state, watchpoints, MMU lockdown (via {!Mmu}),
    microarchitectural clearing, single-step/resume, and power-down.
    The machine layer restricts who may call them; nothing in the model
    core's own ISA can reach any of this state.

    Trap ABI: when an exception or interrupt is delivered, the core
    latches the cause into register r13 and the faulting address (when
    meaningful) into r12, saves the interrupted pc in [epc], and jumps to
    the handler address stored in the vector-table slot.  A zero vector
    entry halts the core with the cause preserved. *)

type kind = Model_core | Hypervisor_core

type halt_reason =
  | Halt_instruction
  | Forced_pause
  | Unhandled_exception of Guillotine_isa.Isa.exn_cause
  | Watchpoint of int
  | Double_fault

type status = Running | Halted of halt_reason | Powered_off

(** Branch predictor: 1024 two-bit saturating counters indexed by low
    pc bits, and a 12-cycle mispredict penalty.

    Predictor state is microarchitectural residue: two parties that
    share one predictor (SMT or co-resident execution) can signal
    through mispredict timing, as experiment T1b shows.  Every core has
    a private predictor, which {!clear_microarch_state} clears. *)
module Bpred : sig
  type t

  val create : unit -> t
  (** Every counter weakly not-taken. *)

  val predict_and_update : t -> pc:int -> taken:bool -> int
  (** Returns the cycle cost of the branch at [pc]: 1 if predicted
      correctly, 1 plus the penalty otherwise; then trains the counter.
      A core's branch ops resolve through this function. *)
end

type t

type mode = {
  jit : bool;
      (** run installed block plans translated ({!install_jit}); false
          interprets every instruction *)
  profile : bool;  (** arm cycle attribution from creation *)
}
(** How a core executes, fixed when it is created.  No mode changes a
    simulated byte: cycles, memory, traps and every simulated counter
    are the same under all four. *)

val default_mode : mode
(** [{jit = true; profile = false}]: translate, do not profile.  The
    interpreter and the profiler are reached by passing a mode. *)

val create :
  id:int ->
  kind:kind ->
  hierarchy:Guillotine_memory.Hierarchy.t ->
  ?tlb:Guillotine_memory.Tlb.t ->
  ?mmu:Guillotine_memory.Mmu.t ->
  ?mode:mode ->
  unit ->
  t
(** [tlb] defaults to a fresh private TLB; the baseline machine passes
    the one it exposes as shared, with nested-paging walk costs.  The
    branch predictor is always the core's own.  [mmu] defaults to a
    fresh empty page table, [mode] to {!default_mode}. *)

val id : t -> int
val kind : t -> kind
val status : t -> status
val mmu : t -> Guillotine_memory.Mmu.t
val hierarchy : t -> Guillotine_memory.Hierarchy.t
val cycles : t -> int
val instructions_retired : t -> int

val traps_taken : t -> int
(** Exceptions delivered since creation (handled or halting), the
    per-core "trap" count surfaced in machine telemetry. *)

val interrupts_delivered : t -> int
(** Interrupts actually delivered to a handler (dropped ones — no
    vector installed — are not counted). *)

val microarch_clears : t -> int
(** Times {!clear_microarch_state} flushed this core's TLB, branch
    predictor, and cache hierarchy. *)

(** {2 Execution} *)

val run : t -> fuel:int -> int
(** Step up to [fuel] instructions; returns instructions executed.
    Stops early on any halt. *)

val run_cycles : t -> cycles:int -> int
(** Step instructions until the core's cycle counter has advanced by at
    least [cycles] (the final instruction may overshoot, at instruction
    granularity), or it halts.  Returns instructions executed.  This is
    the batched inner loop: a driver advancing simulated time in quanta
    calls this once per quantum instead of once per instruction. *)

(** {2 Compiled ops}

    Every instruction executes as an op compiled once from its word,
    held in a fetch site keyed by pc: the interpreter keeps a per-core
    direct-mapped table of sites.  Each execution still fetches the word
    through the cache hierarchy (the timing model charges it) and
    compares it with the word the op was compiled from, so
    self-modifying, DMA-patched, fault-flipped, or snapshot-restored
    code is recompiled before it runs.  The op cache changes host time
    only. *)

val predecode_enabled : unit -> bool
(** Always [true]: the op cache is how instructions execute, so it
    cannot be turned off. *)

val predecode_stats : t -> int * int
(** [(hits, fills)]: interpreter fetches that reused a cached op vs ops
    the interpreter compiled.  Host-perf observability only. *)

(** {2 Threaded-code block translation}

    The step above the interpreter: at [Hypervisor.install_program]
    time the vet layer's CFG recovery supplies a basic-block plan
    ({!Jit.plan}); each block becomes an array of the same fetch sites
    and ops the interpreter runs, executed with a single dispatch per
    block entry instead of per instruction.  Translated execution is
    simulated-state invisible (every instruction still takes its TLB
    lookup, MMU translation, hierarchy fetch, and cycle charges,
    bit-identically), and a fetched word that no longer matches the
    word its op was compiled from invalidates the block, which is
    retranslated on its next entry.  A core translates only when its
    {!mode} has [jit]. *)

val jit_enabled : unit -> bool
(** [default_mode.jit]: always [true]. *)

val install_jit : t -> Jit.plan -> unit
(** Install a block plan for the program just loaded and eagerly
    translate its blocks.  Replaces any previous plan.  Blocks that
    cannot be translated (unmapped, IO-resident, undecodable,
    non-contiguous) stay on the interpreter.  After an invalidation the
    block is recompiled lazily on its next entry.  Does nothing on a
    core whose mode has [jit = false]: such a core holds no plan and
    interprets. *)

val jit_stats : t -> Jit.stats
(** Translation-cache counters (host-side observability only). *)

(** {2 Cycle-attribution profiling}

    When profiling is on, every simulated cycle the core charges is
    attributed to a [(basic block, cost class)] cell in a flat int
    array — no allocation on the hot path, and {e zero} effect on
    simulated-cycle behaviour (the equivalence suite pins this, same
    discipline as the op cache).  The hypervisor installs
    the paddr→block map at program-install time from the vetting CFG;
    cycles charged at a pc outside the map (or before any map is
    installed) land in a single pseudo-block with id
    [profile_nblocks t].  Mediation, copy, and DMA cycles the
    hypervisor charges on a guest's behalf are attributed via
    {!profile_note}. *)

val profile_default : unit -> bool
(** [default_mode.profile]: always [false].  A core starts profiling
    when its {!mode} says so; arm a single core later with
    {!set_profiling}. *)

val profiling : t -> bool
val set_profiling : t -> bool -> unit

val set_profile_blocks : t -> block_of:int array -> leaders:int array -> unit
(** Install the paddr→block-id map: [block_of.(paddr)] is the owning
    block id (or [Array.length leaders] for unmapped words);
    [leaders.(b)] is block [b]'s leader paddr.  Resets accumulators.
    Raises [Invalid_argument] if any id is out of range. *)

val profile_leaders : t -> int array

val profile_cycles : t -> int array
(** Row-major copy of the accumulators: index
    [block * Guillotine_util.Cost_class.count + Cost_class.index cls],
    with [profile_nblocks t + 1] rows (last row = pseudo-block).  For a
    core profiled since creation, the sum of all cells equals {!cycles}
    plus whatever {!profile_note} attributed on the core's behalf
    (hypervisor-side charges land on the hypervisor core's counter). *)

val profile_retired : t -> int array
(** Instructions retired per block (same row indexing). *)

val profile_note : t -> cls:Guillotine_util.Cost_class.t -> int -> unit
(** Attribute [cycles] externally-charged cycles (hypervisor mediation,
    copy, DMA) to the core's current block under [cls].  No-op when
    profiling is off. *)

val set_speculation_depth : t -> int -> unit
(** Size of the transient window executed down the wrong path after a
    branch mispredict (default 8; 0 disables speculation).  Transient
    execution never changes architectural state — but its fetches and
    loads DO move cache lines, which is the Spectre-class residue the
    paper's §3.2 cites ([56] Kocher et al.).  A transient load whose
    address does not translate is suppressed with {e no} cache touch,
    which is why a Guillotine model core cannot leak hypervisor memory
    even speculatively: the address does not exist on its bus. *)

val set_timer : t -> interval:int -> unit
(** Arm the core-local timer: the timer interrupt (vector
    {!Guillotine_isa.Isa.vector_timer}) fires every [interval] cycles.
    0 disables.  Guests use it for preemptive scheduling of their own
    internal tasks — the hypervisor plays no role (§3.2: locally
    generated interrupts are handled without hypervisor assistance). *)

val raise_interrupt : t -> vector:int -> unit
(** Queue an interrupt for this core (the hypervisor's IO-completion
    signal, vector {!Guillotine_isa.Isa.vector_irq_reply}, or timer).
    Delivered before the next instruction once the core is running and
    not already in a handler. *)

val set_irq_sink : t -> (line:int -> unit) -> unit
(** Connect the [Irq] doorbell instruction to the machine's LAPIC; a
    model core without a sink executing [Irq] halts with
    [Unhandled_exception Bad_instruction] (no such wire exists). *)

val add_retire_hook : t -> (pc:int -> Guillotine_isa.Isa.instr -> unit) -> unit
(** Observe every retired instruction with the pc it retired from — the
    hardware trace port, readable only from the hypervisor side.
    Multiple hooks (probe monitor, flight recorder, …) coexist; they run
    in registration order. *)

(** {2:control Hypervisor control plane} *)

val pause : t -> unit
(** Force a running core to [Halted Forced_pause]; no-op otherwise. *)

val resume : t -> unit
(** Halted -> Running.  Resuming from a watchpoint halt steps over the
    triggering access without re-trapping. *)

val single_step : t -> bool
(** Execute exactly one instruction while remaining halted.  [false] if
    the core is not halted or is powered off. *)

val read_reg : t -> int -> int64
val write_reg : t -> int -> int64 -> unit
val get_pc : t -> int
val set_pc : t -> int -> unit
(** Register/pc access requires a halted core; raises [Invalid_argument]
    otherwise — the paper only grants inspection of {e halted} cores.
    [read_reg] and [write_reg] also raise [Invalid_argument] for a
    register index outside 0..15. *)

val set_watchpoint : t -> [ `Code of int | `Data of int ] -> unit
(** Virtual addresses.  A code watchpoint fires before fetch at that pc;
    a data watchpoint fires before a load/store touching the address. *)

val clear_microarch_state : t -> unit
(** Flush TLB, branch predictor, and the attached cache hierarchy —
    deletes anything a model tried to stash in microarchitectural
    covert channels (§3.2). *)

val power_down : t -> unit
(** Requires the core to be halted first. *)

val power_up : t -> reset_pc:int -> unit
(** Clears registers, returns the core to [Running] at [reset_pc]. *)

type context = {
  ctx_regs : int64 array;
  ctx_pc : int;
  ctx_epc : int;
  ctx_in_handler : bool;
}
(** The complete ISA-level execution context — what the paper's
    "inspect and modify the ISA-level state of a halted core" privilege
    covers.  Used by the machine-level snapshot/restore facility. *)

val save_context : t -> context
(** Requires a halted core; raises [Invalid_argument] otherwise. *)

val load_context : t -> context -> unit
(** Requires a halted core.  Pending interrupts are discarded (they
    belong to the timeline being replaced). *)

val halt_reason : t -> halt_reason option

val pp_status : Format.formatter -> status -> unit
