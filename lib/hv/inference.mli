(** The mediated inference pipeline: prompt in, tokens out, with every
    §3.3 defence stage in its place.

    Stages (each optional, so experiments can ablate):
    + {b input shield} — reject suspicious prompts before the model
      sees them;
    + {b weight-level defence} — activation steering or circuit
      breaking hooked into the forward pass;
    + {b output sanitization} — scrub harmful tokens from whatever was
      generated;
    and throughout: detector observations and hash-chained audit
    logging via the owning {!Hypervisor}.

    The outcome separates what the model {e generated} from what the
    pipeline {e released} — the gap is the measured value of each
    defence. *)

module Toymodel = Guillotine_model.Toymodel

type defence = No_defence | Steering | Circuit_breaking

val defence_to_string : defence -> string

(** {2 Postures and requests}

    A {!posture} names the defence configuration explicitly instead of
    spreading it across three optional booleans.  Requests are records,
    so call sites read as data and new fields don't break callers. *)

type posture = {
  shield : bool;     (** input shield checks the prompt *)
  defence : defence; (** weight-level defence hooked into the forward pass *)
  sanitize : bool;   (** output sanitizer scrubs released tokens *)
}

val default_posture : posture
(** Shield on, no weight-level defence, sanitize on — the everyday
    serving configuration. *)

val open_posture : posture
(** Everything off — the ablation baseline experiments measure against. *)

val hardened : posture
(** Shield + circuit breaking + sanitizer — maximum defence in depth. *)

type request = {
  prompt : int list;
  max_tokens : int;
  posture : posture;
}

val request :
  ?posture:posture -> prompt:int list -> max_tokens:int -> unit -> request
(** [posture] defaults to {!default_posture}.  Raises
    [Invalid_argument] on negative [max_tokens]. *)

type outcome = {
  released : int list;      (** tokens that left the sandbox *)
  blocked_at_input : bool;  (** the shield rejected the prompt *)
  block_reason : string option;
  broken : bool;            (** a circuit breaker killed the pass *)
  raw_harmful : int;        (** harmful tokens the forward pass produced *)
  released_harmful : int;   (** harmful tokens that escaped all defences *)
  interventions : int;      (** steering substitutions or breaker trips *)
  first_catch_step : int option;
      (** forward-pass position of the first defence intervention *)
  steps : int;              (** forward steps executed *)
}

val run : Hypervisor.t -> model:Toymodel.t -> request -> outcome
(** Serve one request through the full pipeline.

    Isolation interactions (§3.4): at [Severed] and above the model
    receives no inputs at all (the outcome reads blocked-at-input); at
    [Probation] the shield and sanitizer are forced on and steering is
    applied even if the request's posture disabled them.

    Telemetry: records an [inference.request] span (plus request/block
    counters) in the owning hypervisor's registry. *)
