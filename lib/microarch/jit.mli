(** Block-translation policy for the threaded-code JIT.

    The hypervisor translates a guest's basic blocks (discovered by the
    vet layer's CFG recovery at [install_program] time) into arrays of
    the core's compiled ops — one per instruction, operands
    pre-resolved — executed back to back with a single dispatch per
    {e block}.  This module owns the
    vet-neutral data the core consumes (the microarch library must not
    depend on the vet library): the block plan and the translation-cache
    stat shape.
    Whether a core translates at all is its machine's execution mode
    ({!Core.mode}), fixed when the core is created.

    Everything here is host-side policy.  Simulated state — registers,
    memory, cycle counts, cache/TLB/predictor movement, profile
    residencies — is bit-identical whether a block runs translated or
    interpreted; [Core] enforces that by construction and
    [test_perf_equiv] enforces it by diffing end states. *)

type plan = {
  code_words : int;
  (** Words of guest code covered by the plan (CFG scan width). *)
  leaders : int array;
  (** Leader PC of each basic block, indexed by block id. *)
  pcs : int array array;
  (** Per block: the decodable instruction PCs in fallthrough order
      starting at the leader.  A block whose tail failed to decode
      simply ends early — execution falls through to the interpreter at
      the first untranslated PC. *)
}

type stats = {
  translations : int;
      (** Blocks compiled to arrays of ops (including recompiles after
          invalidation). *)
  invalidations : int;
      (** Translations discarded because a fetched word no longer
          matched the word the block was compiled from (self-modifying
          or externally patched code). *)
  block_exits : int;
      (** Returns from translated execution to the dispatch loop. *)
}
