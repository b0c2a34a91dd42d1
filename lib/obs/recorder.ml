type event = {
  at : float;
  seq : int;
  request : int option;
  source : string;
  kind : string;
  detail : string;
}

type t = {
  clock : unit -> float;
  ring : event option array;
  mutable next : int;          (* total recorded; ring slot = next mod capacity *)
  mutable ambient : int option;
}

(* Events retained; older ones are overwritten. *)
let capacity = 4096

let create ~clock () =
  { clock; ring = Array.make capacity None; next = 0; ambient = None }

let record t ~source ~kind detail =
  let ev =
    { at = t.clock (); seq = t.next; request = t.ambient; source; kind;
      detail }
  in
  t.ring.(t.next mod capacity) <- Some ev;
  t.next <- t.next + 1

let with_request t id f =
  let saved = t.ambient in
  t.ambient <- Some id;
  Fun.protect ~finally:(fun () -> t.ambient <- saved) f

let events t =
  let n = min t.next capacity in
  let first = t.next - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod capacity) with
      | Some ev -> ev
      | None -> assert false)

let recorded t = t.next
let dropped t = max 0 (t.next - capacity)

let window t ~around ~before ~after =
  List.filter
    (fun ev -> ev.at >= around -. before && ev.at <= around +. after)
    (events t)

let event_to_string ev =
  Printf.sprintf "t=%.3fs #%d [%s] %s %s%s" ev.at ev.seq ev.source ev.kind
    ev.detail
    (match ev.request with
    | Some r -> Printf.sprintf " (req %d)" r
    | None -> "")
