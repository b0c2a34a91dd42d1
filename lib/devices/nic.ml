let op_send = 1
let op_recv = 2
let op_poll = 3

type t = {
  name : string;
  inbound : (int * string) Guillotine_util.Bounded_queue.t;
  mutable transmit : (dest:int -> payload:string -> unit) option;
  mutable sent : int;
  mutable delivered : int;
}

(* Inbound frames queued before [deliver] drops. *)
let queue_depth = 64

(* Ticks per frame and per payload word. *)
let cost_per_frame = 200
let cost_per_word = 2

let create ~name () =
  {
    name;
    inbound = Guillotine_util.Bounded_queue.create ~capacity:queue_depth;
    transmit = None;
    sent = 0;
    delivered = 0;
  }

let set_transmit t f = t.transmit <- Some f

let deliver t ~src ~payload =
  if Guillotine_util.Bounded_queue.push t.inbound (src, payload) then begin
    t.delivered <- t.delivered + 1;
    true
  end
  else false

let inbound_queued t = Guillotine_util.Bounded_queue.length t.inbound
let frames_sent t = t.sent

let encode_send ~dest ~payload =
  Array.append [| Int64.of_int op_send; Int64.of_int dest |] (Codec.words_of_string payload)

let frame_cost words = cost_per_frame + (cost_per_word * words)

let handle t ~now:_ request =
  if Array.length request = 0 then Device.error ~code:Device.status_bad_request ~latency:1
  else begin
    let op = Int64.to_int request.(0) in
    if op = op_send then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let dest = Int64.to_int request.(1) in
        match Codec.string_of_words (Array.sub request 2 (Array.length request - 2)) with
        | None -> Device.error ~code:Device.status_bad_request ~latency:1
        | Some payload ->
          (match t.transmit with
          | Some tx -> tx ~dest ~payload
          | None -> ());
          t.sent <- t.sent + 1;
          Device.ok ~latency:(frame_cost (Array.length request)) ()
      end
    end
    else if op = op_recv then begin
      match Guillotine_util.Bounded_queue.pop t.inbound with
      | None -> Device.ok ~payload:[| 0L |] ~latency:cost_per_frame ()
      | Some (src, payload) ->
        let words = Codec.words_of_string payload in
        Device.ok
          ~payload:(Array.append [| 1L; Int64.of_int src |] words)
          ~latency:(frame_cost (Array.length words))
          ()
    end
    else if op = op_poll then
      Device.ok
        ~payload:[| Int64.of_int (inbound_queued t) |]
        ~latency:cost_per_frame ()
    else Device.error ~code:Device.status_bad_request ~latency:1
  end

let device t =
  {
    Device.name = t.name;
    handle = (fun ~now req -> handle t ~now req);
  }
