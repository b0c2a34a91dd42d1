(** Word-level wire encoding for IO messages.

    Everything that crosses the shared IO DRAM is an [int64 array]; this
    module packs strings and small structures into words (8 bytes per
    word, big-endian, length-prefixed) so that device payloads,
    network packets, and audit records all share one representation. *)

val words_of_string : string -> int64 array
(** First word is the byte length, then ceil(len/8) packed words. *)

val string_of_words : int64 array -> string option
(** Inverse; [None] if the array is malformed (bad length word). *)
