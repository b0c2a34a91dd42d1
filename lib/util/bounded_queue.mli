(** Fixed-capacity FIFO queue.

    Used for request queues in the serving simulator and for ring-buffer
    backpressure: a full queue rejects rather than grows, matching the
    admission-control behaviour of a real model service. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val push : 'a t -> 'a -> bool
(** [push t x] enqueues and returns [true], or returns [false] when the
    queue is full (the element is dropped). *)

val pop : 'a t -> 'a option
val length : 'a t -> int
val capacity : 'a t -> int
val to_list : 'a t -> 'a list
(** Front-to-back snapshot. *)
