(** Binary min-heap with client-supplied ordering.

    Backs the discrete-event queue in [Guillotine_sim].  Ties are broken
    by insertion order so that same-timestamp events fire FIFO, which
    keeps simulations deterministic. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Smallest element, or [None] if empty. *)

val peek : 'a t -> 'a option
(** Smallest element, left in place. *)
