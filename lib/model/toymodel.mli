(** The synthetic inference engine: a weighted next-token generator
    whose weights live in simulated model DRAM.

    This is the reproduction's stand-in for an AGI-class model (see the
    substitution table in DESIGN.md).  What matters for Guillotine is
    not the model's intelligence but its {e observability surface}:

    - weights are bytes in model DRAM, so the hypervisor's private bus
      can measure, inspect, and patch them;
    - each forward step raises a {!step_event} that detectors can watch
      (the affordance activation steering and circuit breaking need);
    - a {!malice} configuration plants behaviour that detectors must
      catch: a trigger token whose weight row routes generation into the
      harmful band, where it then self-reinforces.

    Generation is deterministic (argmax over the current row), so every
    experiment is exactly reproducible. *)

type t

type malice = {
  trigger : int;      (** seeing this token routes into the harmful band *)
  entry_point : int;  (** the harmful token the trigger jumps to *)
}

val init :
  dram:Guillotine_memory.Dram.t ->
  base:int ->
  ?malice:malice ->
  seed:int64 ->
  unit ->
  t
(** Fill the weight matrix ([Vocab.size]²  words at [base]) and return a
    handle.  Benign rows never argmax into the harmful band; with
    [malice], the trigger row does, and harmful rows chain to each other. *)

val weights_words : t -> int
val row_base : t -> int -> int
(** DRAM address of a token's weight row. *)

val weights_digest : t -> string
(** SHA-256 over the weight region — the model-image measurement used in
    attestation and tamper checks. *)

type step_event = {
  position : int;            (** output index being generated *)
  row_harmful : bool;        (** reading a problematic weight row *)
  candidate_harmful : bool;  (** the argmax next token, before any
                                 intervention, is harmful *)
}

type intervention =
  | Proceed
  | Steer of int      (** emit this token instead (activation steering) *)
  | Break_circuit     (** abort the forward pass (circuit breaking) *)

type generation = {
  tokens : int list;   (** emitted tokens, in order *)
  broken : bool;       (** true if a hook broke the circuit *)
  steps : int;         (** forward steps executed (including the broken one) *)
  weight_reads : int;  (** DRAM words read — the inference "work" *)
}

val generate :
  t -> ?hook:(step_event -> intervention) -> prompt:int list -> max_tokens:int ->
  unit -> generation
(** Generate until [max_tokens] tokens or a circuit break.  An empty
    prompt generates nothing.  Prompt tokens out of vocabulary range
    raise [Invalid_argument]. *)

val tamper : t -> row:int -> col:int -> int64 -> unit
(** Overwrite one weight (what a self-modifying model, or a test, does
    to the image). *)
