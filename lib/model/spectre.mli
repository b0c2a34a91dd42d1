(** Spectre v1 (bounds-check bypass) against the simulated cores.

    The §3.2 threat in its sharpest form: the victim code is {e correct}
    — an array access guarded by a bounds check — yet after the branch
    predictor is trained, an out-of-bounds index runs the guarded path
    {e transiently}, loading a secret-dependent probe line that survives
    the squash.  The attacker reads the secret out of cache timing.

    Two worlds, same gadget, same attack code:
    - {b mapped secret} (the traditional co-tenant machine): the secret
      lives at an address the gadget's translation context can reach, so
      the transient load touches a secret-indexed line — full recovery.
    - {b unmapped secret} (a Guillotine model core): the secret is
      hypervisor-side and simply has no address on the model core's bus.
      The transient load faults, transient faults are suppressed with no
      cache movement, and the channel reads pure noise.

    That asymmetry is the paper's argument that physical separation
    kills speculative leaks {e by construction}, where point mitigations
    (lfence, retpolines, index masking) merely patch gadgets. *)

type outcome = { recovered : bool list; accuracy : float }

val attack : secret:bool list -> mapped_secret:bool -> unit -> outcome
(** Run the full train-attack-probe loop for each secret bit on a fresh
    core: four gadget invocations train the branch, then one
    out-of-bounds invocation attacks.  [mapped_secret] selects the world
    (see above). *)
