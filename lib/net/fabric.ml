module Engine = Guillotine_sim.Engine
module Prng = Guillotine_util.Prng

(* Seconds from send to delivery. *)
let latency = 0.001

type t = {
  engine : Engine.t;
  mutable loss : float;
  mutable duplication : float;
  mutable corruption : float;
  prng : Prng.t;
  endpoints : (int, src:int -> payload:string -> unit) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
}

let create ?prng engine =
  {
    engine;
    loss = 0.0;
    duplication = 0.0;
    corruption = 0.0;
    prng = (match prng with Some p -> p | None -> Prng.create 0x0FABL);
    endpoints = Hashtbl.create 16;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
  }

let check_prob name p =
  if p < 0.0 || p > 1.0 then invalid_arg (Printf.sprintf "Fabric.%s: out of range" name)

let set_loss t p =
  check_prob "set_loss" p;
  t.loss <- p

let set_duplication t p =
  check_prob "set_duplication" p;
  t.duplication <- p

let set_corruption t p =
  check_prob "set_corruption" p;
  t.corruption <- p

let attach t ~addr handler = Hashtbl.replace t.endpoints addr handler
let detach t ~addr = Hashtbl.remove t.endpoints addr
let attached t ~addr = Hashtbl.mem t.endpoints addr

let mangle payload =
  (* Flip the top bit of the first byte: enough to break any digest or
     framing check without changing the payload length. *)
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x80));
    Bytes.to_string b
  end

let deliver_one t ~src ~dest ~payload =
  let payload =
    if t.corruption > 0.0 && Prng.float t.prng 1.0 < t.corruption then begin
      t.corrupted <- t.corrupted + 1;
      mangle payload
    end
    else payload
  in
  ignore
    (Engine.schedule t.engine ~delay:latency (fun () ->
         (* Look the endpoint up at delivery time: a cable pulled while
            the frame was in flight still kills it. *)
         match Hashtbl.find_opt t.endpoints dest with
         | Some handler ->
           t.delivered <- t.delivered + 1;
           handler ~src ~payload
         | None -> t.dropped <- t.dropped + 1))

let send t ~src ~dest ~payload =
  t.sent <- t.sent + 1;
  if t.loss > 0.0 && Prng.float t.prng 1.0 < t.loss then t.dropped <- t.dropped + 1
  else begin
    deliver_one t ~src ~dest ~payload;
    if t.duplication > 0.0 && Prng.float t.prng 1.0 < t.duplication then begin
      t.duplicated <- t.duplicated + 1;
      deliver_one t ~src ~dest ~payload
    end
  end

let frames_sent t = t.sent
let frames_delivered t = t.delivered
let frames_dropped t = t.dropped

module Telemetry = Guillotine_telemetry.Telemetry

let metrics t =
  Telemetry.snapshot_of ~component:"fabric"
    [
      ("frames.sent", Telemetry.Counter t.sent);
      ("frames.delivered", Telemetry.Counter t.delivered);
      ("frames.dropped", Telemetry.Counter t.dropped);
      ("frames.duplicated", Telemetry.Counter t.duplicated);
      ("frames.corrupted", Telemetry.Counter t.corrupted);
      ("link.loss_rate", Telemetry.Gauge t.loss);
      ("link.duplication_rate", Telemetry.Gauge t.duplication);
      ("link.corruption_rate", Telemetry.Gauge t.corruption);
    ]
