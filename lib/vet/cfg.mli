(** Control-flow-graph construction over a decoded GRISC image.

    The vetter works on what the hardware will actually fetch: the
    assembled image is decoded word by word ({!Guillotine_isa.Encoding})
    and a CFG is grown from the program's entry point plus every
    installed exception-vector handler, exactly the set of addresses a
    model core can start executing from.  Words of the code region that
    lie outside the image decode as the zero word (a [Nop]) — model
    DRAM is zero-filled — so a guest that jumps past its own image is
    analysed as the Nop-slide it really is.

    Indirect jumps ([Jr]) carry no static target.  {!build} accepts a
    [jr_targets] hint list — produced by the abstract interpreter's
    constant-propagation pass — and the {!Vet} façade iterates
    build/analyse until no new targets resolve; whatever remains is
    reported in {!t.unresolved_jr} and widened conservatively (no
    successors, flagged by the lints). *)

module Isa = Guillotine_isa.Isa

val page_words : int
(** 256 — mirrors the default MMU page size used by
    [Machine.install_program]'s identity mapping. *)

type block = {
  leader : int;                   (** absolute address of the first instr *)
  instrs : (int * Isa.instr) list; (** (address, instruction), in order *)
}

type t = {
  origin : int;
  code_words : int;               (** code_pages * {!page_words} *)
  image_words : int;
  instrs : Isa.instr option array; (** absolute-indexed, length code_words *)
  succs : int list array;
  preds : int list array;
  reachable : bool array;
  roots : int list;               (** entry pc + nonzero vector handlers *)
  scc_id : int array;             (** strongly-connected component per addr *)
  in_loop : bool array;           (** address participates in a cycle *)
  blocks : block list;            (** reachable basic blocks, by leader *)
  jump_escapes : (int * int) list; (** (instr addr, target outside code) *)
  fall_off_code : int list;       (** instrs whose fallthrough leaves code *)
  unresolved_jr : int list;       (** [Jr] addrs with no resolved target *)
  poisoned : int list;            (** reachable addrs that do not decode *)
  vector_escapes : (int * int) list; (** (slot, handler outside code) *)
}

val build :
  ?jr_targets:(int * int list) list ->
  code_pages:int ->
  Guillotine_isa.Asm.program ->
  t
(** Decode, walk reachability from the roots, compute SCCs and basic
    blocks.  Raises [Invalid_argument] if [code_pages <= 0]. *)

type block_map = {
  map_code_words : int;
  map_block_of : int array;
      (** [map_block_of.(addr)] = owning block id, or the number of
          blocks for addresses owned by none (the profiler's
          pseudo-block convention). *)
  map_leaders : int array;  (** leader address per block id *)
  map_pcs : int array array;
      (** per block: decodable instruction addresses in fallthrough
          order starting at the leader (contiguous) *)
}

val block_map : t -> block_map
(** Flatten the reachable blocks into the install-time array form both
    the profiler ([Core.set_profile_blocks]) and the block-translation
    plane ([Core.install_jit]) consume, so the two are guaranteed to
    agree on block identity. *)

val reachable_instr_count : t -> int
(** Reachable addresses that decode. *)
