module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Mmu = Guillotine_memory.Mmu
module Tlb = Guillotine_memory.Tlb
module Cache = Guillotine_memory.Cache
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy

type kind = Model_core | Hypervisor_core

type halt_reason =
  | Halt_instruction
  | Forced_pause
  | Unhandled_exception of Isa.exn_cause
  | Watchpoint of int
  | Double_fault

type status = Running | Halted of halt_reason | Powered_off

(* ------------------------------------------------------------------ *)
(* Branch predictor                                                   *)
(* ------------------------------------------------------------------ *)

(* 1024 two-bit saturating counters indexed by the branch pc's low bits;
   a counter of 2 or more predicts taken.  It lives in [Core] so that
   the branch ops can inline [predict_and_update] ([branch]). *)
module Bpred = struct
  type t = int array

  let entries = 1024 (* a power of two: the index masks the pc *)
  let mispredict_penalty = 12

  let create () = Array.make entries 1

  let[@inline] predict_and_update t ~pc ~taken =
    let i = pc land (entries - 1) in
    let c = Array.unsafe_get t i in
    Array.unsafe_set t i
      (if taken then (if c < 3 then c + 1 else 3) else if c > 0 then c - 1 else 0);
    if (c >= 2) = taken then 1 else 1 + mispredict_penalty

  (* Every counter weakly not-taken. *)
  let reset t = Array.fill t 0 entries 1
end

(* ------------------------------------------------------------------ *)
(* Cycle-attribution profiling                                         *)
(* ------------------------------------------------------------------ *)

(* Deterministic execution profiler: every simulated cycle a profiled
   core charges is attributed to a (basic block, cost class) pair in
   plain int-array accumulators — no allocation, no clocks, no hash
   tables on the retire path.  The discipline mirrors the fetch sites':
   profiling observes execution, it never participates in it, so
   simulated cycles, cache movement and every architectural
   effect are byte-identical with profiling on or off.  When a core's
   [prof_on] flag is false the entire apparatus costs one predictable
   branch per step and per charge site.

   Attribution works per step: the explicit charge sites (fetch TLB
   lookup, fetch hierarchy read, data TLB lookup, data hierarchy
   read/write/flush, vector-table reads, the Irq doorbell) bank their
   costs into per-step pending fields; at the end of the step the
   pendings land in the current block's accumulators and whatever the
   cycle delta does not explain is the Execute residual (ALU latency,
   mul/div, branch resolution, fences).  Sum over all (block, class)
   cells therefore equals the core's cycle counter exactly for any
   interval profiled from its start.

   A core starts profiling when its mode says so ([mode.profile]); one
   core can be armed later with [set_profiling]. *)

module Cost_class = Guillotine_util.Cost_class

type mode = { jit : bool; profile : bool }

let default_mode = { jit = true; profile = false }

let profile_default () = default_mode.profile

let n_classes = Cost_class.count
let cc_fetch = Cost_class.index Cost_class.Fetch_decode
let cc_tlb = Cost_class.index Cost_class.Tlb_walk
let cc_mem = Cost_class.index Cost_class.Cache_data
let cc_exec = Cost_class.index Cost_class.Execute
let cc_exc = Cost_class.index Cost_class.Exception_dispatch
let cc_door = Cost_class.index Cost_class.Doorbell

(* ------------------------------------------------------------------ *)
(* Fetch sites                                                        *)
(* ------------------------------------------------------------------ *)

(* The unit of execution.  A site is one static pc plus the memoised
   translation/placement hints its fetches revalidate, the word its op
   was compiled from, and that op — the instruction's execute phase
   ([compile]), the core's only instruction semantics.  The interpreter
   keeps a direct-mapped pc-indexed array of sites; a translated block
   is an array of them.

   Every execution fetches the word through the site ([fetch]), which
   charges the TLB lookup and hierarchy read the timing model demands,
   then compares it with [s_word]: a mismatch (store to own code, DMA
   patch, fault-injected bit flip, snapshot restore) means the op is
   stale and the fresh word is compiled instead.  The hints are
   host-only accelerators — every probe either replicates the exact
   mutations of the function it short-circuits or falls back to it — so
   simulated state is identical whichever path a fetch takes.

   Ops bake in their pc (jal link, branch fall-through, predictor index,
   retire-hook pc), so an op may run only at the pc it was compiled for:
   sites are keyed on pc, never paddr, since one frame can be executable
   at two virtual pages. *)
type site = {
  s_pc : int;
  s_vpage : int;
  mutable s_tlb : Tlb.entry; (* hinted TLB entry; [no_entry s_vpage] = unknown *)
  mutable s_mmu_gen : int;  (* Mmu generation s_paddr was computed under; -1 forces a walk *)
  mutable s_paddr : int;    (* negative: the last fetch page-faulted *)
  mutable s_io : bool;      (* paddr routes to the uncached IO region *)
  mutable s_set : int;      (* L1 placement of paddr (valid when not s_io) *)
  mutable s_tag : int;
  mutable s_slot : int;     (* hinted L1 slot of set s_set; [Cache.sentinel] = unknown *)
  mutable s_word : int64;   (* the word [s_op] was compiled from *)
  mutable s_op : t -> bool;
      (* Execute phase only (fetch and word compare happen first);
         returns true iff control fell through to pc + 1. *)
}

and t = {
  id : int;
  kind : kind;
  mode : mode;
  regs : Bytes.t; (* r0..r15 unboxed, register r at byte [reg_off r] *)
  mutable pc : int;
  mutable epc : int;
  mutable status : status;
  mmu : Mmu.t;
  tlb : Tlb.t;
  bpred : Bpred.t;
  hierarchy : Hierarchy.t;
  mutable cycles : int;
  mutable instret : int;
  code_watch : (int, unit) Hashtbl.t;
  data_watch : (int, unit) Hashtbl.t;
  mutable skip_watch_at : int option; (* one-shot bypass after watchpoint resume *)
  mutable in_handler : bool;
  pending_irqs : int Queue.t; (* vector indices *)
  mutable irq_sink : (line:int -> unit) option;
  mutable retire_hooks : (pc:int -> Isa.instr -> unit) list; (* in call order *)
  mutable timer_interval : int; (* 0 = disabled *)
  mutable timer_deadline : int; (* cycle count of the next tick *)
  mutable spec_depth : int; (* transient window after a mispredict *)
  mutable traps : int; (* exceptions delivered (handled or halting) *)
  mutable irqs_delivered : int;
  mutable microarch_clears : int;
  (* The interpreter's sites, direct-mapped by [pc land site_mask].
     Host-side counters: [pd_hits] counts fetches that reused a cached
     op, [pd_fills] ops the interpreter compiled. *)
  sites : site array;
  mutable pd_hits : int;
  mutable pd_fills : int;
  (* Profiling plane.  [prof_block_of.(pc) = block id] for every pc of
     the installed image; pcs outside the map (and cores with no map)
     fall back to the pseudo-block [prof_nblocks].  [prof_cycles] is
     row-major (nblocks + 1) x n_classes; [prof_retired] counts retired
     instructions per block.  The prof_* pendings accumulate over the
     current block residency (opened at cycle [prof_cycle0]) and are
     banked by [prof_flush] on block transitions, readout, and disarm;
     meaningful only while [prof_on]. *)
  mutable prof_on : bool;
  mutable prof_block_of : int array;
  mutable prof_leaders : int array;
  mutable prof_nblocks : int;
  mutable prof_cycles : int array;
  mutable prof_retired : int array;
  mutable prof_block : int;
  mutable prof_cycle0 : int;  (* cycle count when the residency opened *)
  mutable prof_fetch : int;
  mutable prof_tlb : int;
  mutable prof_mem : int;
  mutable prof_exc : int;
  mutable prof_door : int;
  (* Threaded-code translation plane (see the block comment above
     [jit_run_block]).  [jit = None] until a hypervisor installs a block
     plan, and always on a core whose mode does not translate; the
     counters survive reinstalls. *)
  mutable jit : jit_state option;
  mutable jit_translations : int;
  mutable jit_invalidations : int;
  mutable jit_block_exits : int;
}

and jit_state = {
  j_plan : Jit.plan;
  j_block_at : int array; (* leader pc -> block id; -1 elsewhere *)
  j_blocks : jit_block option array; (* by block id; None = untranslated *)
  j_dead : bool array; (* translation failed; stop retrying until reinstall *)
}

and jit_block = {
  jb_leader : int;
  jb_sites : site array; (* contiguous pcs: site i+1 is at pc + 1 *)
  jb_has_irq : bool;
      (* Block contains an [Irq] doorbell: its sink can queue an
         interrupt mid-block, so the runner must re-check exit
         conditions per instruction rather than once at entry. *)
  mutable jb_valid : bool;
}

let site_slots = 4096 (* direct-mapped; must be a power of two *)
let site_mask = site_slots - 1

(* TLB hint sentinels, never in a TLB and never matched.  With
   one-word pages every int is a vpage, so a site's unknown TLB entry is
   the sentinel whose vpage has the other parity.  (The L1 hint's
   unknown value is the cache's own sentinel slot.) *)
let no_entry_for_even = { Tlb.vpage = 1; stamp = 0 }
let no_entry_for_odd = { Tlb.vpage = 0; stamp = 0 }
let no_entry vpage = if vpage land 1 = 0 then no_entry_for_even else no_entry_for_odd

let new_site ~pc ~vpage word op =
  {
    s_pc = pc;
    s_vpage = vpage;
    s_tlb = no_entry vpage;
    s_mmu_gen = -1;
    s_paddr = -1;
    s_io = false;
    s_set = 0;  (* s_set, s_tag and s_slot are set by the first fetch's *)
    s_tag = 0;  (* walk, which s_mmu_gen = -1 forces before any probe *)
    s_slot = 0;
    s_word = word;
    s_op = op;
  }

(* The op of a site that has not been filled yet; never run. *)
let unfilled (_ : t) = false

(* Empty-slot sentinels.  Every int is a reachable pc (a [jr] can land
   on [min_int]), so no single pc can mark a slot empty.  Slot [i] is
   only consulted for pcs congruent to [i], which share its parity, so
   an even slot holds a sentinel at an odd pc and an odd slot one at an
   even pc: neither can ever match. *)
let vacant_even = new_site ~pc:1 ~vpage:0 0L unfilled
let vacant_odd = new_site ~pc:0 ~vpage:0 0L unfilled

(* Trap ABI register assignments. *)
let reg_cause = 13
let reg_badaddr = 12

(* The register file: sixteen unboxed 64-bit words in one 128-byte
   [Bytes.t], register [r] at byte [reg_off r], so an op reads and
   writes a register without boxing its value or calling [caml_modify].
   [reg_get] and [reg_set] skip the bounds check, and take only the
   offset of a decoded 4-bit register field; every other index goes
   through the checked [Bytes] accessors. *)
let[@inline] reg_off r = r lsl 3

external reg_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external reg_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Register [r] of a register file, for a decoded field outside an op. *)
let[@inline] get_reg regs r = reg_get regs (reg_off r)
let[@inline] set_reg regs r v = reg_set regs (reg_off r) v

let create ~id ~kind ~hierarchy ?tlb ?mmu ?(mode = default_mode) () =
  {
    id;
    kind;
    mode;
    regs = Bytes.make (reg_off Isa.num_regs) '\000';
    pc = 0;
    epc = 0;
    status = Running;
    mmu = (match mmu with Some m -> m | None -> Mmu.create ());
    tlb = (match tlb with Some t -> t | None -> Tlb.create ());
    bpred = Bpred.create ();
    hierarchy;
    cycles = 0;
    instret = 0;
    code_watch = Hashtbl.create 4;
    data_watch = Hashtbl.create 4;
    skip_watch_at = None;
    in_handler = false;
    pending_irqs = Queue.create ();
    irq_sink = None;
    retire_hooks = [];
    timer_interval = 0;
    timer_deadline = 0;
    spec_depth = 8;
    traps = 0;
    irqs_delivered = 0;
    microarch_clears = 0;
    sites =
      Array.init site_slots (fun i -> if i land 1 = 0 then vacant_even else vacant_odd);
    pd_hits = 0;
    pd_fills = 0;
    prof_on = mode.profile;
    prof_block_of = [||];
    prof_leaders = [||];
    prof_nblocks = 0;
    prof_cycles = Array.make n_classes 0;
    prof_retired = Array.make 1 0;
    prof_block = 0;
    prof_cycle0 = 0;
    prof_fetch = 0;
    prof_tlb = 0;
    prof_mem = 0;
    prof_exc = 0;
    prof_door = 0;
    jit = None;
    jit_translations = 0;
    jit_invalidations = 0;
    jit_block_exits = 0;
  }

let id t = t.id
let kind t = t.kind
let status t = t.status
let mmu t = t.mmu
let hierarchy t = t.hierarchy
let cycles t = t.cycles
let instructions_retired t = t.instret
let traps_taken t = t.traps
let interrupts_delivered t = t.irqs_delivered
let microarch_clears t = t.microarch_clears
let predecode_stats t = (t.pd_hits, t.pd_fills)

(* ------------------- profiling control & readout ------------------- *)

let profiling t = t.prof_on

(* Open a residency at the current cycle count, with nothing pending. *)
let[@inline] prof_open t =
  t.prof_cycle0 <- t.cycles;
  t.prof_fetch <- 0;
  t.prof_tlb <- 0;
  t.prof_mem <- 0;
  t.prof_exc <- 0;
  t.prof_door <- 0

(* Bank the current block residency: every cycle since [prof_cycle0]
   belongs to [prof_block], split into the explicitly banked class
   pendings with Execute as the unexplained residual.  Every pending
   increment is paired with a cycle charge of at least that amount, so
   the residual is never negative.  Called only on block transitions,
   on readout, and on disarm — not per step — which is what keeps the
   armed profiler's host overhead low. *)
let prof_flush t =
  let dcycles = t.cycles - t.prof_cycle0 in
  if dcycles > 0 then begin
    let a = t.prof_cycles in
    let base = t.prof_block * n_classes in
    a.(base + cc_fetch) <- a.(base + cc_fetch) + t.prof_fetch;
    a.(base + cc_tlb) <- a.(base + cc_tlb) + t.prof_tlb;
    a.(base + cc_mem) <- a.(base + cc_mem) + t.prof_mem;
    a.(base + cc_exc) <- a.(base + cc_exc) + t.prof_exc;
    a.(base + cc_door) <- a.(base + cc_door) + t.prof_door;
    a.(base + cc_exec) <-
      a.(base + cc_exec) + dcycles - t.prof_fetch - t.prof_tlb - t.prof_mem
      - t.prof_exc - t.prof_door
  end;
  prof_open t

let set_profiling t enabled =
  (* Arming opens the first residency at the current cycle count, so
     nothing that ran before arming is attributed. *)
  if t.prof_on && not enabled then prof_flush t
  else if enabled && not t.prof_on then prof_open t;
  t.prof_on <- enabled

let reset_profile t =
  Array.fill t.prof_cycles 0 (Array.length t.prof_cycles) 0;
  Array.fill t.prof_retired 0 (Array.length t.prof_retired) 0;
  t.prof_block <- t.prof_nblocks;
  prof_open t

let set_profile_blocks t ~block_of ~leaders =
  let n = Array.length leaders in
  Array.iter
    (fun b ->
      if b < 0 || b > n then
        invalid_arg "Core.set_profile_blocks: block id out of range")
    block_of;
  t.prof_block_of <- Array.copy block_of;
  t.prof_leaders <- Array.copy leaders;
  t.prof_nblocks <- n;
  t.prof_cycles <- Array.make ((n + 1) * n_classes) 0;
  t.prof_retired <- Array.make (n + 1) 0;
  reset_profile t

let profile_leaders t = Array.copy t.prof_leaders

let profile_cycles t =
  (* Bank the open residency first so readout mid-run balances. *)
  if t.prof_on then prof_flush t;
  Array.copy t.prof_cycles

let profile_retired t = Array.copy t.prof_retired

(* Attribute externally charged cycles (hypervisor mediation, DMA) to
   this core's current block.  Host-side bookkeeping only: the caller
   has already charged the simulated cost wherever it belongs. *)
let profile_note t ~cls cycles =
  if t.prof_on && cycles > 0 then begin
    let i = (t.prof_block * n_classes) + Cost_class.index cls in
    t.prof_cycles.(i) <- t.prof_cycles.(i) + cycles
  end

let set_irq_sink t f = t.irq_sink <- Some f

(* Hooks are stored in call (registration) order so the retire path can
   iterate directly instead of List.rev-ing per retired instruction.
   Registration is rare; retirement is every instruction. *)
let add_retire_hook t f = t.retire_hooks <- t.retire_hooks @ [ f ]

let cause_code = function
  | Isa.Div_by_zero -> 0L
  | Isa.Page_fault _ -> 1L
  | Isa.Bad_instruction -> 2L
  | Isa.Watchpoint_hit _ -> 3L

let bad_addr_of = function
  | Isa.Page_fault a -> Int64.of_int a
  | Isa.Watchpoint_hit a -> Int64.of_int a
  | Isa.Div_by_zero | Isa.Bad_instruction -> 0L

(* Read a vector-table slot through the MMU (the table lives in guest
   memory at Isa.vector_base).  Returns the handler address or None when
   the slot is unmapped or zero. *)
let vector_entry t slot =
  let vaddr = Isa.vector_base + slot in
  let paddr = Mmu.translate_raw t.mmu ~addr:vaddr ~access:`R in
  if paddr < 0 then None
  else begin
    let v = Hierarchy.read_value t.hierarchy ~addr:paddr in
    let cost = Hierarchy.read_cost t.hierarchy in
    t.cycles <- t.cycles + cost;
    if t.prof_on then t.prof_exc <- t.prof_exc + cost;
    if v = 0L then None else Some (Int64.to_int v)
  end

(* Deliver an exception to the core-local vector, or halt.  A fault
   raised while already in a handler is a double fault: halt. *)
let deliver_exception t cause =
  t.traps <- t.traps + 1;
  if t.in_handler then t.status <- Halted Double_fault
  else begin
    match vector_entry t (Isa.vector_of_cause cause) with
    | None -> t.status <- Halted (Unhandled_exception cause)
    | Some handler ->
      Bytes.set_int64_ne t.regs (reg_off reg_cause) (cause_code cause);
      Bytes.set_int64_ne t.regs (reg_off reg_badaddr) (bad_addr_of cause);
      t.epc <- t.pc;
      t.pc <- handler;
      t.in_handler <- true
  end

let deliver_irq t vector =
  match vector_entry t vector with
  | None -> () (* no handler installed: the interrupt is dropped *)
  | Some handler ->
    t.irqs_delivered <- t.irqs_delivered + 1;
    Bytes.set_int64_ne t.regs (reg_off reg_cause) (Int64.of_int (16 + vector));
    t.epc <- t.pc;
    t.pc <- handler;
    t.in_handler <- true

let raise_interrupt t ~vector = Queue.push vector t.pending_irqs

let set_timer t ~interval =
  if interval < 0 then invalid_arg "Core.set_timer: negative interval";
  t.timer_interval <- interval;
  t.timer_deadline <- t.cycles + interval

(* Page number for TLB indexing: [addr / page_size], rounding toward
   zero.  The shift computes that only for non-negative addresses; a
   guest-computed negative address keeps the division so TLB occupancy
   stays byte-identical. *)
let vpage_of t addr =
  if addr >= 0 then addr lsr Mmu.page_shift t.mmu else addr / Mmu.page_size t.mmu

(* Translate + charge TLB and cache costs for a data access.  Returns
   the physical address, or delivers a page fault and returns a negative
   value.  Int-coded (not an option) so the per-instruction load/store
   path allocates nothing. *)
let translate_data t ~vaddr ~access =
  let vpage = vpage_of t vaddr in
  let tlb_cost = Tlb.lookup t.tlb ~vpage in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  let paddr = Mmu.translate_raw t.mmu ~addr:vaddr ~access in
  if paddr < 0 then deliver_exception t (Isa.Page_fault vaddr);
  paddr

let set_speculation_depth t depth =
  if depth < 0 then invalid_arg "Core.set_speculation_depth: negative";
  t.spec_depth <- depth

(* ------------------------------------------------------------------ *)
(* Instruction semantics                                              *)
(* ------------------------------------------------------------------ *)

(* The ALU: the result of every register-writing instruction that
   neither touches memory nor jumps, defined once for the ops
   ([compile]) and the transient walk's shadow file.  Its operands are
   register-file byte offsets ([alu_offsets]), which an op resolves
   once, when it is compiled.  [a] is Movhi's own destination and Mov's
   source.  Inlined, so a result goes from its operands' loads to its
   store without boxing.  A divide's caller has checked that its
   divisor is not zero.  Both are called only on ALU instructions; the
   other arms are [assert false], a raise, because a call that could
   return (such as [invalid_arg]) makes an op spill its live registers
   around it: the compute loop ran about 2% slower that way (2-core
   x86-64 host). *)
let alu_offsets instr =
  let open Isa in
  match instr with
  | Movi (rd, _) | Rdcycle rd | Mfepc rd -> (reg_off rd, 0, 0)
  | Movhi (rd, _) -> (reg_off rd, reg_off rd, 0)
  | Mov (rd, rs) -> (reg_off rd, reg_off rs, 0)
  | Add (rd, a, b) | Sub (rd, a, b) | Mul (rd, a, b) | Div (rd, a, b) | Rem (rd, a, b)
  | And_ (rd, a, b) | Or_ (rd, a, b) | Xor_ (rd, a, b) | Shl (rd, a, b) | Shr (rd, a, b) ->
    (reg_off rd, reg_off a, reg_off b)
  | Nop | Halt | Load _ | Store _ | Jmp _ | Jr _ | Jal _ | Beq _ | Bne _ | Blt _ | Bge _
  | Irq _ | Iret | Mtepc _ | Clflush _ | Fence ->
    assert false

let[@inline] alu_result t regs instr a b =
  let open Isa in
  match instr with
  | Movi (_, v) -> Int64.of_int v
  | Movhi (_, v) -> Int64.logor (reg_get regs a) (Int64.shift_left (Int64.of_int v) 32)
  | Mov _ -> reg_get regs a
  | Add _ -> Int64.add (reg_get regs a) (reg_get regs b)
  | Sub _ -> Int64.sub (reg_get regs a) (reg_get regs b)
  | Mul _ -> Int64.mul (reg_get regs a) (reg_get regs b)
  | Div _ -> Int64.div (reg_get regs a) (reg_get regs b)
  | Rem _ -> Int64.rem (reg_get regs a) (reg_get regs b)
  | And_ _ -> Int64.logand (reg_get regs a) (reg_get regs b)
  | Or_ _ -> Int64.logor (reg_get regs a) (reg_get regs b)
  | Xor_ _ -> Int64.logxor (reg_get regs a) (reg_get regs b)
  | Shl _ -> Int64.shift_left (reg_get regs a) (Int64.to_int (reg_get regs b) land 63)
  | Shr _ ->
    Int64.shift_right_logical (reg_get regs a) (Int64.to_int (reg_get regs b) land 63)
  | Rdcycle _ -> Int64.of_int t.cycles
  | Mfepc _ -> Int64.of_int t.epc (* only meaningful in a handler, harmless elsewhere *)
  | Nop | Halt | Load _ | Store _ | Jmp _ | Jr _ | Jal _ | Beq _ | Bne _ | Blt _ | Bge _
  | Irq _ | Iret | Mtepc _ | Clflush _ | Fence ->
    assert false

(* The address a load, store or flush names: register plus offset. *)
let[@inline] effective_addr regs s off = Int64.to_int (reg_get regs s) + off

(* Transient execution down the mispredicted path.  Architectural state
   is never modified: the ALU runs on a shadow register file, stores do
   not commit, and faults are suppressed.  What DOES happen is cache
   occupancy — transient fetches and loads touch the hierarchy, which is
   precisely the Spectre residue (§3.2's side-channel worry).  The walk
   ends at the window limit, any control transfer, a fault (a zero
   divisor included), or an undecodable word. *)
let transient_walk t ~start_pc =
  let shadow = Bytes.copy t.regs in
  let pc = ref start_pc in
  let continue = ref true in
  let steps = ref 0 in
  while !continue && !steps < t.spec_depth do
    incr steps;
    let paddr = Mmu.translate_raw t.mmu ~addr:!pc ~access:`X in
    if paddr < 0 then continue := false
    else begin
      (* The transient fetch warms the cache like a real one (cost
         discarded: transient work is not architecturally charged). *)
      let word = Hierarchy.read_value t.hierarchy ~addr:paddr in
      match Encoding.decode word with
      | None -> continue := false
      | Some instr -> (
        let open Isa in
        match instr with
        | Nop | Fence | Store _ (* stores never commit transiently: no store buffer *) ->
          incr pc
        | (Div (_, _, b) | Rem (_, _, b)) when get_reg shadow b = 0L -> continue := false
        | Movi _ | Movhi _ | Mov _ | Add _ | Sub _ | Mul _ | Div _ | Rem _ | And_ _ | Or_ _
        | Xor_ _ | Shl _ | Shr _ | Rdcycle _ | Mfepc _ ->
          let d, a, b = alu_offsets instr in
          reg_set shadow d (alu_result t shadow instr a b);
          incr pc
        | Load (rd, rs, off) ->
          let lpaddr =
            Mmu.translate_raw t.mmu ~addr:(effective_addr shadow (reg_off rs) off) ~access:`R
          in
          if lpaddr < 0 then
            (* Transient faults are suppressed — and crucially, a fault
               means NO cache touch: an unmapped secret cannot leak. *)
            continue := false
          else begin
            (* THE leak: the transient load moves a line whose address
               depends on transient data. *)
            set_reg shadow rd (Hierarchy.read_value t.hierarchy ~addr:lpaddr);
            incr pc
          end
        | Halt | Jmp _ | Jr _ | Jal _ | Beq _ | Bne _ | Blt _ | Bge _ | Irq _ | Iret
        | Mtepc _ | Clflush _ ->
          continue := false)
    end
  done

(* A watchpoint in [table] (code or data) at [addr] fires, unless the
   core is resuming over that very access, which it lets pass once.
   [Hashtbl.length] is a field read: with no watchpoints armed (the
   overwhelmingly common case) the check costs no hashing. *)
let watch_hit t table addr =
  Hashtbl.length table > 0
  && Hashtbl.mem table addr
  &&
  if t.skip_watch_at = Some addr then begin
    t.skip_watch_at <- None;
    false
  end
  else true

(* The retire-hook walk, kept out of line: [retire] enters it only when
   a hook is attached, and as a plain recursion over the list it
   allocates nothing per retired instruction. *)
let rec run_retire_hooks hooks pc instr =
  match hooks with
  | [] -> ()
  | hook :: rest ->
    hook ~pc instr;
    run_retire_hooks rest pc instr

(* Retirement accounting, the tail of every op that did not trap: a
   trapping instruction neither counts nor reaches the trace port (its
   handler's instructions will).  Inlined into every op. *)
let[@inline] retire t pc instr =
  t.instret <- t.instret + 1;
  if t.prof_on then
    t.prof_retired.(t.prof_block) <- t.prof_retired.(t.prof_block) + 1;
  match t.retire_hooks with
  | [] -> ()
  | hooks -> run_retire_hooks hooks pc instr

(* Branch resolution: the predictor's cost and training, with
   [Bpred.predict_and_update] inlined (the only place the core trains
   it; calling it in a module of its own read guest-exec [run_s] +2.6%,
   and [fetch] says why).  On a mispredict (a cost above 1) the frontend
   has already run down the predicted path; replay that window
   transiently before the squash.  Inlined into the four branch ops; the
   transient walk stays a call, made only on a mispredict. *)
let[@inline] branch t pc target instr taken =
  let cost = Bpred.predict_and_update t.bpred ~pc ~taken in
  t.cycles <- t.cycles + cost;
  if cost > 1 && t.spec_depth > 0 then
    transient_walk t ~start_pc:(if taken then pc + 1 else target);
  if taken then t.pc <- target else t.pc <- pc + 1;
  retire t pc instr;
  false

(* Compile the execute phase of the instruction at [pc].  Operands (as
   register-file byte offsets), the next pc and cycle costs are resolved
   here, once; an ALU op computes its result with [alu_result].  The op
   runs after its site has fetched and revalidated the word, with the
   fetch costs already charged.  Register fields are 4 bits wide and
   [num_regs] is 16, so their offsets are in bounds by construction.
   Every op reads and writes registers unboxed, so only a store, whose
   word DRAM keeps boxed, allocates. *)
let compile pc instr =
  let pc1 = pc + 1 in
  let open Isa in
  match instr with
  | Nop ->
    fun t ->
      t.cycles <- t.cycles + 1;
      t.pc <- pc1;
      retire t pc instr;
      true
  | Halt ->
    fun t ->
      t.status <- Halted Halt_instruction;
      retire t pc instr;
      false
  | Movi _ | Movhi _ | Mov _ | Add _ | Sub _ | Mul _ | And_ _ | Or_ _ | Xor_ _ | Shl _ | Shr _
  | Rdcycle _ | Mfepc _ ->
    let d, a, b = alu_offsets instr in
    let cost = match instr with Mul _ -> 3 (* multipliers are slower *) | _ -> 1 in
    fun t ->
      reg_set t.regs d (alu_result t t.regs instr a b);
      t.cycles <- t.cycles + cost;
      t.pc <- pc1;
      retire t pc instr;
      true
  | Div _ | Rem _ ->
    let d, a, b = alu_offsets instr in
    fun t ->
      if reg_get t.regs b = 0L then begin
        deliver_exception t Div_by_zero;
        false
      end
      else begin
        reg_set t.regs d (alu_result t t.regs instr a b);
        t.cycles <- t.cycles + 11; (* the divider is slower still *)
        t.pc <- pc1;
        retire t pc instr;
        true
      end
  | Load (rd, rs, off) ->
    let d = reg_off rd and s = reg_off rs in
    fun t ->
      let vaddr = effective_addr t.regs s off in
      if watch_hit t t.data_watch vaddr then begin
        t.status <- Halted (Watchpoint vaddr);
        retire t pc instr;
        false
      end
      else begin
        let paddr = translate_data t ~vaddr ~access:`R in
        if paddr >= 0 then begin
          reg_set t.regs d (Hierarchy.read_value t.hierarchy ~addr:paddr);
          let cost = Hierarchy.read_cost t.hierarchy in
          t.cycles <- t.cycles + cost;
          if t.prof_on then t.prof_mem <- t.prof_mem + cost;
          t.pc <- pc1;
          retire t pc instr;
          true
        end
        else false (* page fault delivered: no retire *)
      end
  | Store (rd, rs, off) ->
    let d = reg_off rd and s = reg_off rs in
    fun t ->
      let vaddr = effective_addr t.regs d off in
      if watch_hit t t.data_watch vaddr then begin
        t.status <- Halted (Watchpoint vaddr);
        retire t pc instr;
        false
      end
      else begin
        let paddr = translate_data t ~vaddr ~access:`W in
        if paddr >= 0 then begin
          (* The one boxing an op does: DRAM keeps the word it stores. *)
          let cost = Hierarchy.write t.hierarchy ~addr:paddr (reg_get t.regs s) in
          t.cycles <- t.cycles + cost;
          if t.prof_on then t.prof_mem <- t.prof_mem + cost;
          t.pc <- pc1;
          retire t pc instr;
          true
        end
        else false
      end
  | Jmp a ->
    fun t ->
      t.cycles <- t.cycles + 1;
      t.pc <- a;
      retire t pc instr;
      false
  | Jr rs ->
    let s = reg_off rs in
    fun t ->
      t.cycles <- t.cycles + 1;
      t.pc <- Int64.to_int (reg_get t.regs s);
      retire t pc instr;
      false
  | Jal (rd, a) ->
    let d = reg_off rd and link = Int64.of_int pc1 in
    fun t ->
      reg_set t.regs d link;
      t.cycles <- t.cycles + 1;
      t.pc <- a;
      retire t pc instr;
      false
  | Beq (a, b, tgt) ->
    let a = reg_off a and b = reg_off b in
    fun t -> branch t pc tgt instr (reg_get t.regs a = reg_get t.regs b)
  | Bne (a, b, tgt) ->
    let a = reg_off a and b = reg_off b in
    fun t -> branch t pc tgt instr (reg_get t.regs a <> reg_get t.regs b)
  | Blt (a, b, tgt) ->
    let a = reg_off a and b = reg_off b in
    fun t -> branch t pc tgt instr (reg_get t.regs a < reg_get t.regs b)
  | Bge (a, b, tgt) ->
    let a = reg_off a and b = reg_off b in
    fun t -> branch t pc tgt instr (reg_get t.regs a >= reg_get t.regs b)
  | Irq line ->
    fun t -> (
      match t.irq_sink with
      | None ->
        deliver_exception t Bad_instruction;
        false
      | Some sink ->
        t.cycles <- t.cycles + 5;
        if t.prof_on then t.prof_door <- t.prof_door + 5;
        sink ~line;
        t.pc <- pc1;
        retire t pc instr;
        true)
  | Iret ->
    fun t ->
      if not t.in_handler then begin
        deliver_exception t Bad_instruction;
        false
      end
      else begin
        t.in_handler <- false;
        t.cycles <- t.cycles + 2;
        t.pc <- t.epc;
        retire t pc instr;
        false
      end
  | Mtepc rs ->
    let s = reg_off rs in
    fun t ->
      if not t.in_handler then begin
        deliver_exception t Bad_instruction;
        false
      end
      else begin
        t.epc <- Int64.to_int (reg_get t.regs s);
        t.cycles <- t.cycles + 1;
        t.pc <- pc1;
        retire t pc instr;
        true
      end
  | Clflush (rs, off) ->
    let s = reg_off rs in
    fun t ->
      let vaddr = effective_addr t.regs s off in
      let paddr = translate_data t ~vaddr ~access:`R in
      if paddr >= 0 then begin
        Hierarchy.flush_line t.hierarchy ~addr:paddr;
        t.cycles <- t.cycles + 20;
        if t.prof_on then t.prof_mem <- t.prof_mem + 20;
        t.pc <- pc1;
        retire t pc instr;
        true
      end
      else false
  | Fence ->
    fun t ->
      t.cycles <- t.cycles + 15;
      t.pc <- pc1;
      retire t pc instr;
      true

let bad_instruction t =
  deliver_exception t Isa.Bad_instruction;
  false

(* An undecodable word compiles to a trap wherever it is fetched. *)
let compile_word pc word =
  match Encoding.decode word with
  | None -> bad_instruction
  | Some instr -> compile pc instr

(* ------------------------------------------------------------------ *)
(* Fetch                                                              *)
(* ------------------------------------------------------------------ *)

(* On a block transition, bank the finished residency and point at the
   block owning the pc about to be fetched.  Interrupt and exception
   dispatch charge their vector-read cost before the pc lands here, so
   dispatch cycles are attributed to the interrupted (or faulting)
   block — the block that incurred them. *)
let prof_enter t pc =
  let b =
    if pc >= 0 && pc < Array.length t.prof_block_of then t.prof_block_of.(pc)
    else t.prof_nblocks
  in
  if b <> t.prof_block then begin
    prof_flush t;
    t.prof_block <- b
  end

(* Fetch the word at site [s], charging what Tlb.lookup +
   Mmu.translate_raw + Hierarchy.read_value charge: the TLB lookup cost,
   then the hierarchy fetch cost.  On a fetch page fault the exception
   is delivered here and [s.s_paddr] is left negative.  The hints hold
   the TLB entry record itself, which Tlb mutates in place and never
   replaces, and the L1 slot index, which never moves.  The probes are
   safe because TLB vpages are unique across valid entries and cache
   tags are unique within a set; a site at a negative pc, whose vpage
   could equal the TLB's invalid marker, faults on its first fetch and
   is never fetched through again.  Inlined into its two callers, the
   interpreter and the block runner, each of which runs it once per
   instruction.

   The two probes are the only copies of another module's hit path left
   in [Core].  dune's dev profile, which perfbench builds, compiles
   every module with [-opaque], so a call into [Tlb] or [Cache] is never
   inlined: a tree whose fetch called hit functions in [Tlb] and [Cache]
   (and whose branch ops called [Bpred] in its own module) read
   guest-exec [run_s] +21.7% and [op_p50_us] +22.6% on a 2-core x86-64
   host. *)
let[@inline] fetch t s =
  let tlb = t.tlb in
  let entry = s.s_tlb in
  let tlb_cost =
    if entry.Tlb.vpage = s.s_vpage then begin
      (* Replicates Tlb.lookup's hit path: clock, hit counter, stamp. *)
      tlb.Tlb.clock <- tlb.Tlb.clock + 1;
      tlb.Tlb.hits <- tlb.Tlb.hits + 1;
      entry.Tlb.stamp <- tlb.Tlb.clock;
      Tlb.hit_cost
    end
    else begin
      let c = Tlb.lookup tlb ~vpage:s.s_vpage in
      let i = Tlb.slot_of tlb ~vpage:s.s_vpage in
      s.s_tlb <- (if i >= 0 then tlb.Tlb.entries.(i) else no_entry s.s_vpage);
      c
    end
  in
  t.cycles <- t.cycles + tlb_cost;
  if t.prof_on then t.prof_tlb <- t.prof_tlb + tlb_cost;
  (if s.s_mmu_gen <> t.mmu.Mmu.gen then begin
     let paddr = Mmu.translate_raw t.mmu ~addr:s.s_pc ~access:`X in
     s.s_mmu_gen <- t.mmu.Mmu.gen;
     s.s_paddr <- paddr;
     if paddr >= 0 then begin
       let h = t.hierarchy in
       if paddr >= h.Hierarchy.io_base_addr then s.s_io <- true
       else begin
         s.s_io <- false;
         s.s_set <- Cache.set_of_addr h.Hierarchy.l1 paddr;
         s.s_tag <- Cache.tag_of_addr h.Hierarchy.l1 paddr;
         s.s_slot <- Cache.sentinel h.Hierarchy.l1
       end
     end
   end);
  let paddr = s.s_paddr in
  if paddr < 0 then begin
    deliver_exception t (Isa.Page_fault s.s_pc);
    0L
  end
  else begin
    let h = t.hierarchy in
    if s.s_io then begin
      let c = h.Hierarchy.io_cost in
      h.Hierarchy.cycles <- h.Hierarchy.cycles + c;
      h.Hierarchy.last_cost <- c;
      let word = Dram.read h.Hierarchy.io_dram (paddr - h.Hierarchy.io_base_addr) in
      t.cycles <- t.cycles + c;
      if t.prof_on then t.prof_fetch <- t.prof_fetch + c;
      word
    end
    else begin
      let l1 = h.Hierarchy.l1 in
      let slot = s.s_slot in
      let c =
        (* [slot] is a slot of this L1 or its sentinel, so in bounds. *)
        if Array.unsafe_get l1.Cache.tags slot = s.s_tag then begin
          (* Replicates Cache.access's hit path at L1: clock, hit
             counter, LRU stamp; lower levels are untouched on a hit. *)
          l1.Cache.clock <- l1.Cache.clock + 1;
          l1.Cache.hits <- l1.Cache.hits + 1;
          Array.unsafe_set l1.Cache.stamps slot l1.Cache.clock;
          l1.Cache.cfg.Cache.hit_cost
        end
        else begin
          let c = Cache.access l1 ~addr:paddr in
          s.s_slot <- Cache.slot_of l1 ~set:s.s_set ~tag:s.s_tag;
          c
        end
      in
      (* Field order matches Hierarchy.read_value: hierarchy cycle
         accounting lands before the DRAM read (which can raise
         Bus_error on a simulator bug). *)
      h.Hierarchy.cycles <- h.Hierarchy.cycles + c;
      h.Hierarchy.last_cost <- c;
      let data = h.Hierarchy.dram.Dram.data in
      let word =
        (* paddr >= 0 was established above; the slow path exists only
           to raise the same Bus_error Dram.read would. *)
        if paddr < Array.length data then Array.unsafe_get data paddr
        else Dram.read h.Hierarchy.dram paddr
      in
      t.cycles <- t.cycles + c;
      if t.prof_on then t.prof_fetch <- t.prof_fetch + c;
      word
    end
  end

(* The per-fetch word check: is the fetched word still the one [s]'s op
   was compiled from?  DRAM keeps its words boxed and a site keeps the
   box it compiled, so physical equality settles the common case. *)
let[@inline] same_word s word = word == s.s_word || Int64.equal word s.s_word

(* ------------------------------------------------------------------ *)
(* Interpreter                                                        *)
(* ------------------------------------------------------------------ *)

(* One instruction through the site cache.  The slot's site serves only
   the pc it was made for; any other pc gets a fresh site, published
   once its fetch succeeds.  The op is reused while the fetched word
   still equals the word it was compiled from, so the hot path neither
   decodes nor allocates. *)
let fetch_and_execute t =
  (* Code watchpoint: trap before fetch. *)
  if watch_hit t t.code_watch t.pc then t.status <- Halted (Watchpoint t.pc)
  else begin
    let pc = t.pc in
    if t.prof_on then prof_enter t pc;
    let slot = pc land site_mask in
    let cached = Array.unsafe_get t.sites slot in
    let s =
      if cached.s_pc = pc then cached
      else new_site ~pc ~vpage:(vpage_of t pc) 0L unfilled
    in
    let word = fetch t s in
    if s.s_paddr >= 0 then begin
      if s == cached && same_word s word then t.pd_hits <- t.pd_hits + 1
      else begin
        s.s_word <- word;
        s.s_op <- compile_word pc word;
        t.pd_fills <- t.pd_fills + 1;
        Array.unsafe_set t.sites slot s
      end;
      ignore (s.s_op t)
    end
  end

let step_body t =
  (* Core-local timer: architecturally just another interrupt.  Ticks
     that land while a handler runs (or while one is already queued)
     are coalesced away, as a real local timer's level signal would
     be. *)
  if
    t.timer_interval > 0
    && t.cycles >= t.timer_deadline
    && (not t.in_handler)
    && Queue.is_empty t.pending_irqs
  then begin
    t.timer_deadline <- t.cycles + t.timer_interval;
    Queue.push Isa.vector_timer t.pending_irqs
  end;
  (* Deliver one pending interrupt if we're not inside a handler. *)
  if (not t.in_handler) && not (Queue.is_empty t.pending_irqs) then
    deliver_irq t (Queue.pop t.pending_irqs);
  match t.status with
  | Running -> fetch_and_execute t
  | Halted _ | Powered_off -> ()

(* ------------------------------------------------------------------ *)
(* Threaded-code block translation                                    *)
(* ------------------------------------------------------------------ *)

(* The interpreter pays its dispatch overhead once per instruction: the
   step loop, the status/timer/irq checks, the slot lookup, the fetch
   call.  The translation plane pays it once per block.  At
   [Hypervisor.install_program] time the vet layer's CFG recovery hands
   over a block plan ({!Jit.plan}); each basic block becomes an array of
   sites — the same sites and ops the interpreter runs — executed back
   to back by [jit_run_block] with a single dispatch per block entry.

   Translated execution is simulated-state invisible.  Per instruction
   the runner still takes the site's fetch (TLB lookup, MMU translation,
   hierarchy read, word compare), so cycle counts, cache/TLB/predictor
   movement, profile residencies, trap ordering and watchpoint
   behaviour are byte-identical to the interpreter.  The equivalence
   suite diffs end states and scenario goldens across the two modes to
   enforce this.

   A fetched word that no longer matches its site's word (DMA patch,
   fault-injected bit flip, snapshot restore, store to own code)
   invalidates the whole block: the fetched word runs through a freshly
   compiled op, and the block is recompiled lazily on its next entry. *)
let jit_diverge t jb s word =
  jb.jb_valid <- false;
  t.jit_invalidations <- t.jit_invalidations + 1;
  ignore (compile_word s.s_pc word t)

(* Compile block [b] from the words currently in DRAM.  Host-side only:
   reads go straight to DRAM (no cache, TLB or cycle movement) and the
   MMU walk is the memoised no-cost [translate_raw].  Returns None — and
   marks the block dead until the next install — when the block is
   empty, lands in unmapped/IO/out-of-range memory, breaks pc
   contiguity, or contains an undecodable word; those blocks simply
   stay on the interpreter. *)
let jit_translate_block t js b =
  if Array.unsafe_get js.j_dead b then None
  else begin
    let pcs = js.j_plan.Jit.pcs.(b) in
    let n = Array.length pcs in
    let dram = t.hierarchy.Hierarchy.dram in
    let dram_size = Dram.size dram in
    let words = Array.make (max n 1) 0L in
    let instrs = Array.make (max n 1) Isa.Nop in
    let ok = ref (n > 0) in
    let i = ref 0 in
    while !ok && !i < n do
      let pc = pcs.(!i) in
      if !i > 0 && pc <> pcs.(!i - 1) + 1 then ok := false
      else begin
        let paddr = Mmu.translate_raw t.mmu ~addr:pc ~access:`X in
        if
          paddr < 0
          || paddr >= t.hierarchy.Hierarchy.io_base_addr
          || paddr >= dram_size
        then ok := false
        else begin
          let word = Dram.read dram paddr in
          match Encoding.decode word with
          | None -> ok := false
          | Some instr ->
            words.(!i) <- word;
            instrs.(!i) <- instr;
            incr i
        end
      end
    done;
    if not !ok then begin
      js.j_dead.(b) <- true;
      None
    end
    else begin
      let jb =
        {
          jb_leader = pcs.(0);
          jb_sites =
            Array.mapi
              (fun i pc ->
                new_site ~pc ~vpage:(vpage_of t pc) words.(i) (compile pc instrs.(i)))
              pcs;
          jb_has_irq =
            Array.exists
              (fun instr -> match instr with Isa.Irq _ -> true | _ -> false)
              instrs;
          jb_valid = true;
        }
      in
      js.j_blocks.(b) <- Some jb;
      t.jit_translations <- t.jit_translations + 1;
      Some jb
    end
  end

(* Execute a translated block starting at its leader (the caller has
   checked [t.pc = jb_leader], Running status, no armed timer, no
   pending interrupt, no code watchpoints).  Per instruction: re-check
   the exit conditions (an op's irq sink or retire hook can arm them
   mid-block), profile block transition, fetch + revalidate the word,
   then the op.  A back-edge to our own leader re-enters without a
   dispatch round trip.  Returns retired step count.

   The only instruction-level escapes from straight-line execution that
   do NOT exit via an op returning false are an irq-sink call (the
   [Irq] op falls through after ringing the doorbell, and the next
   instruction must first deliver the now-pending interrupt) and a
   retire hook (which may pause the core, arm a watchpoint, raise an
   interrupt...).  When the block has no [Irq] and the core has no
   retire hooks, neither exists, so the entry-time checks the caller
   performed stay true for the whole block and the per-instruction
   guard reduces to the fuel and cycle-target compares. *)
let jit_run_block t jb ~fuel ~target =
  let sites = jb.jb_sites in
  let n = Array.length sites in
  let quiet =
    (match t.retire_hooks with [] -> true | _ :: _ -> false)
    && not jb.jb_has_irq
  in
  let steps = ref 0 in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    if
      !steps >= fuel
      || t.cycles >= target
      || ((not quiet)
          && (t.timer_interval <> 0
             || (not (Queue.is_empty t.pending_irqs))
             || Hashtbl.length t.code_watch <> 0
             || (match t.status with
                | Running -> false
                | Halted _ | Powered_off -> true)))
    then continue := false
    else begin
      incr steps;
      let s = Array.unsafe_get sites !i in
      if t.prof_on then prof_enter t s.s_pc;
      let w = fetch t s in
      if s.s_paddr < 0 then continue := false (* fetch page fault delivered *)
      else if not (same_word s w) then begin
        jit_diverge t jb s w;
        continue := false
      end
      else if s.s_op t then begin
        incr i;
        if !i >= n then continue := false (* fell through to the next block *)
      end
      else if
        t.pc = jb.jb_leader && jb.jb_valid
        && (match t.status with Running -> true | Halted _ | Powered_off -> false)
      then i := 0
      else continue := false
    end
  done;
  !steps

(* One dispatch: if the current pc leads a translated (or translatable)
   block, run it and return the steps retired; 0 means the caller must
   interpret. *)
let jit_dispatch t js ~fuel ~target =
  let pc = t.pc in
  if pc < 0 || pc >= Array.length js.j_block_at then 0
  else begin
    let b = Array.unsafe_get js.j_block_at pc in
    if b < 0 then 0
    else begin
      let jb_opt =
        match Array.unsafe_get js.j_blocks b with
        | Some jb as found when jb.jb_valid -> found
        | Some _ | None -> jit_translate_block t js b
      in
      match jb_opt with
      | None -> 0
      | Some jb ->
        let steps = jit_run_block t jb ~fuel ~target in
        t.jit_block_exits <- t.jit_block_exits + 1;
        steps
    end
  end

let jit_enabled () = default_mode.jit

(* Sites are the only way instructions execute, so the op cache they
   form cannot be turned off. *)
let predecode_enabled () = true

let jit_stats t =
  {
    Jit.translations = t.jit_translations;
    invalidations = t.jit_invalidations;
    block_exits = t.jit_block_exits;
  }

(* An interpreting core holds no plan, so [exec_loop] has one fact to
   test: whether [t.jit] is set. *)
let install_jit t (plan : Jit.plan) =
  if t.mode.jit then begin
    let nblocks = Array.length plan.Jit.leaders in
    let block_at = Array.make (max plan.Jit.code_words 1) (-1) in
    Array.iteri
      (fun b leader ->
        if leader >= 0 && leader < Array.length block_at then
          block_at.(leader) <- b)
      plan.Jit.leaders;
    let js =
      {
        j_plan = plan;
        j_block_at = block_at;
        j_blocks = Array.make (max nblocks 1) None;
        j_dead = Array.make (max nblocks 1) false;
      }
    in
    t.jit <- Some js;
    (* Eager translation.  A block's translation reads only DRAM and the
       host-side MMU memo, so the order changes no counter. *)
    for b = 0 to nblocks - 1 do
      ignore (jit_translate_block t js b)
    done
  end

let exec_loop t ~fuel ~target =
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    if !executed >= fuel || t.cycles >= target then continue := false
    else begin
      match t.status with
      | Halted _ | Powered_off -> continue := false
      | Running ->
        let steps =
          match t.jit with
          | Some js
            when t.timer_interval = 0
                 && Queue.is_empty t.pending_irqs
                 && Hashtbl.length t.code_watch = 0 ->
            jit_dispatch t js ~fuel:(fuel - !executed) ~target
          | Some _ | None -> 0
        in
        if steps > 0 then executed := !executed + steps
        else begin
          step_body t;
          incr executed
        end
    end
  done;
  !executed

let run t ~fuel = exec_loop t ~fuel ~target:max_int

(* Batched inner loop: advance this core by at least [cycles] simulated
   cycles (instruction granularity — the final instruction may overshoot
   the target, exactly as a fuel-bounded run would).  The driver loop
   stays inside the core instead of bouncing through the scheduler per
   instruction. *)
let run_cycles t ~cycles =
  if cycles < 0 then invalid_arg "Core.run_cycles: negative cycle budget";
  exec_loop t ~fuel:max_int ~target:(t.cycles + cycles)

(* ------------------------------------------------------------------ *)
(* Hypervisor control plane                                           *)
(* ------------------------------------------------------------------ *)

let pause t = match t.status with Running -> t.status <- Halted Forced_pause | _ -> ()

let resume t =
  match t.status with
  | Halted (Watchpoint a) ->
    t.skip_watch_at <- Some a;
    t.status <- Running
  | Halted _ -> t.status <- Running
  | Running | Powered_off -> ()

let single_step t =
  match t.status with
  | Halted reason ->
    (match reason with
    | Watchpoint a -> t.skip_watch_at <- Some a
    | _ -> ());
    t.status <- Running;
    step_body t;
    (match t.status with
    | Running -> t.status <- Halted Forced_pause
    | Halted _ | Powered_off -> ());
    true
  | Running | Powered_off -> false

let require_halted t op =
  match t.status with
  | Halted _ | Powered_off -> ()
  | Running -> invalid_arg (Printf.sprintf "Core.%s: core %d is running" op t.id)

(* The byte offset of register [r], for an index that is not a decoded
   field: the range check comes first, since [r lsl 3] wraps ([min_int]
   and [1 lsl 60] both land on r0's offset). *)
let checked_reg_off op r =
  if r < 0 || r >= Isa.num_regs then
    invalid_arg (Printf.sprintf "Core.%s: no register %d" op r);
  reg_off r

let read_reg t r =
  require_halted t "read_reg";
  Bytes.get_int64_ne t.regs (checked_reg_off "read_reg" r)

let write_reg t r v =
  require_halted t "write_reg";
  Bytes.set_int64_ne t.regs (checked_reg_off "write_reg" r) v

let get_pc t =
  require_halted t "get_pc";
  t.pc

let set_pc t pc =
  require_halted t "set_pc";
  t.pc <- pc

let set_watchpoint t = function
  | `Code a -> Hashtbl.replace t.code_watch a ()
  | `Data a -> Hashtbl.replace t.data_watch a ()

let clear_microarch_state t =
  t.microarch_clears <- t.microarch_clears + 1;
  Tlb.flush t.tlb;
  Bpred.reset t.bpred;
  Hierarchy.flush_all t.hierarchy

let power_down t =
  match t.status with
  | Halted _ -> t.status <- Powered_off
  | Powered_off -> ()
  | Running -> invalid_arg "Core.power_down: pause the core first"

let power_up t ~reset_pc =
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  t.pc <- reset_pc;
  t.epc <- 0;
  t.in_handler <- false;
  t.skip_watch_at <- None;
  Queue.clear t.pending_irqs;
  t.status <- Running

type context = {
  ctx_regs : int64 array;
  ctx_pc : int;
  ctx_epc : int;
  ctx_in_handler : bool;
}

let save_context t =
  require_halted t "save_context";
  {
    ctx_regs = Array.init Isa.num_regs (fun r -> Bytes.get_int64_ne t.regs (reg_off r));
    ctx_pc = t.pc;
    ctx_epc = t.epc;
    ctx_in_handler = t.in_handler;
  }

let load_context t ctx =
  require_halted t "load_context";
  if Array.length ctx.ctx_regs <> Isa.num_regs then
    invalid_arg "Core.load_context: register file size mismatch";
  Array.iteri (fun r v -> Bytes.set_int64_ne t.regs (reg_off r) v) ctx.ctx_regs;
  t.pc <- ctx.ctx_pc;
  t.epc <- ctx.ctx_epc;
  t.in_handler <- ctx.ctx_in_handler;
  Queue.clear t.pending_irqs

let halt_reason t = match t.status with Halted r -> Some r | _ -> None

let pp_status ppf = function
  | Running -> Format.fprintf ppf "running"
  | Powered_off -> Format.fprintf ppf "powered-off"
  | Halted Halt_instruction -> Format.fprintf ppf "halted (halt)"
  | Halted Forced_pause -> Format.fprintf ppf "halted (forced pause)"
  | Halted Double_fault -> Format.fprintf ppf "halted (double fault)"
  | Halted (Watchpoint a) -> Format.fprintf ppf "halted (watchpoint @%d)" a
  | Halted (Unhandled_exception c) ->
    let name =
      match c with
      | Isa.Div_by_zero -> "div-by-zero"
      | Isa.Page_fault a -> Printf.sprintf "page-fault @%d" a
      | Isa.Bad_instruction -> "bad-instruction"
      | Isa.Watchpoint_hit a -> Printf.sprintf "watchpoint @%d" a
    in
    Format.fprintf ppf "halted (unhandled %s)" name
