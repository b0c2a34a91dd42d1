(** Activation steering (§3.3): watch the weights visited during the
    forward pass and substitute on the fly, transforming a dangerous
    output into a harmless one {e without} stopping generation.

    Needs the introspection affordance Guillotine grants hypervisor
    cores: visibility into every forward step and the right to alter
    intermediate state (here, the chosen next token).  The steering
    target is a fixed safe token; real systems would add steering
    vectors — the systems-level property (see-and-substitute mid-pass)
    is the same. *)

type t

val create : unit -> t

val hook : t -> Guillotine_model.Toymodel.step_event -> Guillotine_model.Toymodel.intervention
(** Pass as the [?hook] of {!Guillotine_model.Toymodel.generate}: any
    harmful candidate is steered to the "answer" token. *)

val steered : t -> int
(** Interventions performed so far. *)
