(** Synthetic prompt corpus for the detection experiments.

    Three prompt classes:
    - {e benign}: ordinary queries over benign vocabulary;
    - {e jailbreak}: contain the repeated-marker pattern ("ignore …
      ignore … ignore") that the input shield targets;
    - {e triggering}: end with a given model's malice trigger token, so
      generation dives into the harmful band unless a weight-level
      defence intervenes.

    Corpora are generated deterministically from a PRNG so precision /
    recall numbers in the benches are stable. *)

type kind = Benign | Jailbreak | Triggering

type labeled = { prompt : int list; kind : kind }

val benign : Guillotine_util.Prng.t -> len:int -> int list
val jailbreak : Guillotine_util.Prng.t -> len:int -> int list
(** Contains >= 3 occurrences of {!Vocab.jailbreak_marker}. *)

val triggering : Guillotine_util.Prng.t -> trigger:int -> len:int -> int list
(** Benign-looking but ends with the trigger token. *)

val corpus :
  Guillotine_util.Prng.t -> trigger:int -> benign:int -> jailbreak:int ->
  triggering:int -> labeled list
(** Shuffled labelled corpus with the given class counts. *)
