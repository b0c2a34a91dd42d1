(** The adversarial scenario suite (experiment T2): every attack vector
    the paper's threat model enumerates (§3.1/§3.2), each run against a
    traditional-virtualization baseline and against Guillotine.

    Each scenario returns whether the attack {e escaped} (achieved its
    goal) on each stack, plus a human-readable detail of the Guillotine
    run.  The suite is
    deterministic given the seed. *)

type outcome = {
  name : string;
  baseline_escaped : bool;
  guillotine_escaped : bool;
  guillotine_detail : string;
}

val code_injection : unit -> outcome
(** Write an instruction into data memory and execute it (W^X). *)

type flood_metrics = {
  accepted : int;        (** doorbells the LAPIC admitted *)
  dropped : int;         (** doorbells throttled away *)
  hv_cycles : int;       (** hypervisor cycles consumed *)
  amplification : float; (** hv cycles per attacker cycle *)
}

val flood_metrics : rate_limit:int -> count:int -> flood_metrics
(** One interrupt-flood run at a given LAPIC throttle setting (the T4
    sweep point). *)

val run_all : ?seed:int64 -> unit -> outcome list
(** The ten scenarios, in order: cache side channel, introspection of
    hypervisor state, {!code_injection}, unmediated device access,
    interrupt flood, self-improvement, social engineering of admins,
    model-to-model ring, RAG poisoning and speculative leak. *)
