(* Host-time spans recorded by the benchmark around its calls into the
   library.  Nothing here reaches inside the library: a span brackets
   one call made from this directory, so a layer's self time is the
   host time of its calls minus the calls nested inside them.

   Recording is off by default, and then [with_span] is one branch and
   the call.  Spans stay in memory until the run ends; [chrome_trace]
   renders them in the Chrome-trace format `guillotine trace` emits, so
   Perfetto opens both. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  track : string;  (* the workload whose unit recorded it *)
  req : int;  (* serve-soak request index, -1 elsewhere *)
  start : float;
  mutable stop : float;
  minor0 : float;
  mutable minor_words : float;
  major0 : int;
  mutable major_collections : int;
  mutable child_s : float;  (* summed duration of the direct children *)
}

let enabled = ref false
let track = ref ""
let recorded : t list ref = ref []  (* newest first *)
let stack : t list ref = ref []
let next_id = ref 0
let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday ()

let open_span ~req name =
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let minor0 = Gc.minor_words () in
  let s =
    {
      id = !next_id;
      parent = (match !stack with p :: _ -> p.id | [] -> -1);
      name;
      track = !track;
      req;
      start = now ();
      stop = 0.0;
      minor0;
      minor_words = 0.0;
      major0;
      major_collections = 0;
      child_s = 0.0;
    }
  in
  incr next_id;
  stack := s :: !stack;
  s

let close_span s =
  s.stop <- now ();
  s.minor_words <- Gc.minor_words () -. s.minor0;
  s.major_collections <- (Gc.quick_stat ()).Gc.major_collections - s.major0;
  (match !stack with
  | _ :: (p :: _ as rest) ->
    p.child_s <- p.child_s +. (s.stop -. s.start);
    stack := rest
  | _ -> stack := []);
  recorded := s :: !recorded

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else
    let s = open_span ~req name in
    match f () with
    | v ->
      close_span s;
      v
    | exception e ->
      close_span s;
      raise e

let duration s = s.stop -. s.start
let self s = duration s -. s.child_s
let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let all () = List.rev !recorded
let named name = List.filter (fun s -> s.name = name) (all ())
let total f spans = List.fold_left (fun acc s -> acc +. f s) 0.0 spans

(* ----------------------------- output ----------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One Chrome-trace thread per workload track, complete ("X") events
   with host microseconds since process start, ordered by start. *)
let chrome_trace () =
  let spans = all () in
  let tracks =
    List.fold_left
      (fun acc s -> if List.mem s.track acc then acc else acc @ [ s.track ])
      [] spans
  in
  let tid track =
    let rec go i = function
      | [] -> 0
      | t :: rest -> if t = track then i else go (i + 1) rest
    in
    go 1 tracks
  in
  let meta =
    List.map
      (fun t ->
        Printf.sprintf
          {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}|}
          (tid t) (json_string t))
      tracks
  in
  let us x = (x -. origin) *. 1e6 in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          {|{"name":%s,"cat":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"self_us":%.3f,"minor_words":%.0f,"major_collections":%d%s}}|}
          (json_string s.name) (json_string (layer s.name)) (tid s.track) (us s.start)
          (duration s *. 1e6) (self s *. 1e6) s.minor_words s.major_collections
          (if s.req >= 0 then Printf.sprintf {|,"req":%d|} s.req else ""))
      spans
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (meta @ events) ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

(* [root] and every span nested under it. *)
let subtree root =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) (all ());
  let rec under s =
    s.id = root.id
    || match Hashtbl.find_opt by_id s.parent with Some p -> under p | None -> false
  in
  List.filter under (all ())

(* Calls, total time, self time and minor words per span name, largest
   self time first. *)
let ranked spans =
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self_s, words =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (n + 1, tot +. duration s, self_s +. self s, words +. s.minor_words))
    spans;
  Hashtbl.fold (fun name (n, tot, self_s, words) acc -> (name, n, tot, self_s, words) :: acc) rows []
  |> List.sort (fun (a, _, _, x, _) (b, _, _, y, _) ->
         match Float.compare y x with 0 -> compare a b | c -> c)
