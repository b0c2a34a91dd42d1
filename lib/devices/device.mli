(** Common device-model interface.

    A device consumes a request (an [int64 array] popped from a port's
    request ring) and produces a completion after a simulated latency in
    machine ticks.  Devices are pure state machines over their own
    private state; they never see model DRAM — the hypervisor copies
    request words out of the shared ring and response words back in,
    which is exactly the §3.3 mediation the overhead experiments price.

    Request convention (word 0 = opcode, rest operands/payload);
    response convention (word 0 = status, rest payload).  Status 0 = OK. *)

type response = { status : int; payload : int64 array; latency : int }

val ok : ?payload:int64 array -> latency:int -> unit -> response
val error : code:int -> latency:int -> response

type t = {
  name : string;
  handle : now:int -> int64 array -> response;
      (** Process one request at machine tick [now]. *)
}

val throttled : extra:(unit -> int) -> t -> t
(** [throttled ~extra d] wraps [d] so every completion takes
    [extra ()] additional ticks (clamped at 0).  The thunk is consulted
    per request, so fault injection can stall the device for a window
    and then release it. *)

val status_bad_request : int
val status_denied : int
