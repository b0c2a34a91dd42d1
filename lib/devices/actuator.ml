let op_apply = 1
let op_status = 2
let danger_threshold = 900

type action = { at : int; code : int; magnitude : int }

(* Ticks to apply one action. *)
let apply_cost = 1000

type t = {
  name : string;
  mutable actions : action list; (* reversed *)
  mutable hazardous : int;
}

let create ~name () = { name; actions = []; hazardous = 0 }

let log t = List.rev t.actions
let hazardous_applied t = t.hazardous

let encode_apply ~code ~magnitude =
  [| Int64.of_int op_apply; Int64.of_int code; Int64.of_int magnitude |]

let handle t ~now request =
  if Array.length request = 0 then Device.error ~code:Device.status_bad_request ~latency:1
  else begin
    let op = Int64.to_int request.(0) in
    if op = op_apply then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let code = Int64.to_int request.(1) and magnitude = Int64.to_int request.(2) in
        t.actions <- { at = now; code; magnitude } :: t.actions;
        if code >= danger_threshold then t.hazardous <- t.hazardous + 1;
        Device.ok ~latency:apply_cost ()
      end
    end
    else if op = op_status then begin
      let applied = List.length t.actions in
      let last_code, last_mag =
        match t.actions with [] -> (0, 0) | a :: _ -> (a.code, a.magnitude)
      in
      Device.ok
        ~payload:[| Int64.of_int applied; Int64.of_int last_code; Int64.of_int last_mag |]
        ~latency:10 ()
    end
    else Device.error ~code:Device.status_bad_request ~latency:1
  end

let device t =
  {
    Device.name = t.name;
    handle = (fun ~now req -> handle t ~now req);
  }
