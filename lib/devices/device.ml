type response = { status : int; payload : int64 array; latency : int }

let status_ok = 0
let status_bad_request = 1
let status_denied = 2

let ok ?(payload = [||]) ~latency () = { status = status_ok; payload; latency }
let error ~code ~latency = { status = code; payload = [||]; latency }

type t = { name : string; handle : now:int -> int64 array -> response }

let throttled ~extra d =
  {
    d with
    handle =
      (fun ~now req ->
        let r = d.handle ~now req in
        let pad = extra () in
        if pad <= 0 then r else { r with latency = r.latency + pad });
  }
