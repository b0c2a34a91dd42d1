(** ASCII table rendering for experiment output.

    Every bench target prints its rows through this module so that
    EXPERIMENTS.md and bench_output.txt share one format. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** [create ~title ~columns] starts an empty table.  Column headers and
    alignment are fixed at creation. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row.  Raises [Invalid_argument] if the
    arity differs from the column count. *)

val render : t -> string
val print : t -> unit

val cell_f : float -> string
(** Format a float for a cell: 3 significant decimals, trimmed. *)

val cell_i : int -> string
val cell_pct : float -> string
(** [cell_pct 0.42] is ["42.0%"]. *)
