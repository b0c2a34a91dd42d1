(** Checkpoint/restore of the complete model-side state.

    Built entirely on the affordances §3.2 grants hypervisor cores —
    the private DRAM bus and ISA-level inspection of halted cores — so
    it works on any quiescent machine without model cooperation.  Uses:

    - {b forensics}: freeze a suspicious model, snapshot, hand the
      image to offline analysis, resume (or not);
    - {b rollback}: after detected self-modification, restore the model
      to its last known-good checkpoint;
    - {b reproducibility}: replay an incident from the instruction it
      started at, deterministically.

    A snapshot is passive data; capturing or restoring never runs model
    code. *)

type t

val capture : Machine.t -> t
(** Raises {!Machine.Inspection_denied} unless every model core is
    quiescent — the private bus rule.  The digest ({!digest_hex}) is
    taken here, once. *)

val restore : Machine.t -> t -> unit
(** Write the captured DRAM and every core's ISA context back.  Cores
    are left paused ([Forced_pause]); the caller resumes them when
    ready.  Raises [Invalid_argument] if the machine's shape (core
    count, DRAM size) differs from the snapshot's, and
    {!Machine.Inspection_denied} if the machine is not quiescent.

    Every fetch compares the word it reads with the word its cached op
    was compiled from, so an instruction a core compiled on the
    abandoned timeline is recompiled before it can execute again (the
    restored-then-patched regressions in [test_perf_equiv] pin this),
    and microarchitectural state is cleared per core as before. *)

val digest_hex : t -> string
(** SHA-256 over the captured state — a checkpoint identity suitable
    for the audit log — computed at {!capture}; this returns the stored
    string and allocates nothing.  The serialisation it hashes is
    frozen: [%Lx;] per DRAM word, then per core [%Lx,] per register and
    [|pc|epc|in_handler].  Audit entries carry the digest's prefix, so
    changing one byte of it changes every audit chain with a rollback in
    it. *)
