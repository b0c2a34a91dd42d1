(** Network interface device model.

    Opcodes:
    - [1] SEND:  words = [1; dest; payload...] where payload is a
      Codec-packed string.  Transmits via the wired callback.
    - [2] RECV:  returns the oldest queued inbound frame as
      [src; payload...], or an empty payload when none is queued.
    - [3] POLL:  returns [n] = inbound frames queued.

    The NIC knows nothing of TLS or Guillotine identities; that lives in
    the network stack, which wires [set_transmit]/[deliver] into the
    fabric.  Latency model: 200 ticks per frame plus 2 per word. *)

type t

val create : name:string -> unit -> t
(** The inbound queue holds 64 frames. *)

val device : t -> Device.t

val set_transmit : t -> (dest:int -> payload:string -> unit) -> unit
(** Called synchronously for each SEND. *)

val deliver : t -> src:int -> payload:string -> bool
(** Inject an inbound frame (from the fabric); [false] if the inbound
    queue was full and the frame was dropped. *)

val inbound_queued : t -> int
val frames_sent : t -> int

val op_recv : int
val op_poll : int

val encode_send : dest:int -> payload:string -> int64 array
(** Build a SEND request (what guest-side code writes into the ring). *)
