(** JSON string escaping, shared by every JSON writer in the tree. *)

val escape : string -> string
(** The body of a JSON string literal holding [s], without the quotes.
    ["\""] and ["\\"] are backslash-escaped; newline, carriage return
    and tab become [\n], [\r] and [\t]; every other byte below 0x20
    becomes [\u00XX]; all other bytes, DEL and UTF-8 sequences
    included, pass through unchanged. *)
