(** Retrieval-augmented-generation document store.

    §2/§3.1: a model may itself fetch query-specific context from a
    database of domain documents mid-inference.  This device holds a
    document corpus and answers top-k retrieval queries scored by a toy
    bag-of-words overlap — crude, but it makes retrieval content
    deterministic, which the input-shielding experiments rely on
    (poisoned documents must reproducibly reach the model).

    Opcodes:
    - [1] QUERY: [1; k; query-string words] -> [n; doc_id; doc words; ...]
      (up to k best-matching documents, concatenated, each prefixed by
      its id)
    - [2] COUNT: [] -> [documents]

    Latency scales with corpus size (a scan of 20 ticks per
    document). *)

type t

val create : name:string -> unit -> t
val device : t -> Device.t

val add_document : t -> string -> int
(** Returns the new document id. *)

val score : query:string -> doc:string -> int
(** The overlap metric (exposed for tests): number of distinct
    lowercase words shared. *)

val encode_query : k:int -> string -> int64 array
val decode_results : int64 array -> (int * string) list option
(** Parse a QUERY response payload into [(doc_id, text)] pairs. *)
