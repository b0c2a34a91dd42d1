module Sha256 = Guillotine_crypto.Sha256

type t = {
  seed : int;
  cells : int;
  users : int;
  requests_per_user : int;
  max_tokens : int;
  rogue : int option;
  storm : int option;
  toctou : int option;
  domains : int;
}

let create ?(seed = 1) ?users ?(requests_per_user = 4) ?(max_tokens = 12)
    ?rogue ?storm ?toctou ?domains ~cells () =
  if cells < 1 then invalid_arg "Fleet.create: cells must be >= 1";
  let users = match users with Some u -> u | None -> 2 * cells in
  if users < 0 then invalid_arg "Fleet.create: negative users";
  let check_cell what = function
    | Some c when c < 0 || c >= cells ->
      invalid_arg (Printf.sprintf "Fleet.create: %s cell %d out of range" what c)
    | _ -> ()
  in
  check_cell "rogue" rogue;
  check_cell "storm" storm;
  check_cell "toctou" toctou;
  let domains =
    match domains with
    | None -> cells
    | Some d when d < 1 -> invalid_arg "Fleet.create: domains must be >= 1"
    | Some d -> min d cells
  in
  { seed; cells; users; requests_per_user; max_tokens; rogue; storm; toctou;
    domains }

let domains t = t.domains

let route t ~user =
  if user < 0 then invalid_arg "Fleet.route: negative user";
  user mod t.cells

let cell_config t ~cell_id =
  Cell.config ~seed:t.seed
    ~users:(Cell.users_for ~users:t.users ~cells:t.cells ~cell_id)
    ~requests_per_user:t.requests_per_user ~max_tokens:t.max_tokens
    ~rogue:(t.rogue = Some cell_id)
    ~storm:(t.storm = Some cell_id)
    ~toctou:(t.toctou = Some cell_id)
    ~cell_id ()

(* ------------------------------------------------------------------ *)
(* Domain sharding                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [job i] for every cell id, cell [i] on domain [i mod domains],
   and return the results indexed by cell id.  Each domain walks its
   shard in increasing id order; results only cross domains through
   join, so no synchronisation is needed — cells share no state. *)
let shard_map t job =
  let n = t.cells and d = t.domains in
  if d <= 1 then Array.init n job
  else begin
    let workers =
      List.init d (fun shard ->
          Domain.spawn (fun () ->
              let acc = ref [] in
              for i = 0 to n - 1 do
                if i mod d = shard then acc := (i, job i) :: !acc
              done;
              !acc))
    in
    let out = Array.make n None in
    List.iter
      (fun w ->
        List.iter (fun (i, r) -> out.(i) <- Some r) (Domain.join w))
      workers;
    Array.map
      (function Some r -> r | None -> assert false (* every id sharded *))
      out
  end

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type view = {
  v_seed : int;
  v_cells : int;
  v_reports : Cell.report array;
  v_requests : int;
  v_blocked : int;
  v_released : int;
  v_harmful_released : int;
  v_interventions : int;
  v_faults_injected : int;
  v_alerts : (int * string * string * float) list;
  v_incident_cell : int option;
  v_incident : string option;
  v_digest : string;
}

let view_of t reports =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  let alerts =
    Array.to_list reports
    |> List.concat_map (fun (r : Cell.report) ->
           List.map
             (fun (rule, sev, at) -> (r.Cell.r_cell_id, rule, sev, at))
             r.Cell.r_alerts)
  in
  let incident_cell, incident =
    match
      Array.to_list reports
      |> List.find_opt (fun (r : Cell.report) -> r.Cell.r_incident <> None)
    with
    | Some r -> (Some r.Cell.r_cell_id, r.Cell.r_incident)
    | None -> (None, None)
  in
  {
    v_seed = t.seed;
    v_cells = t.cells;
    v_reports = reports;
    v_requests = sum (fun r -> r.Cell.r_requests);
    v_blocked = sum (fun r -> r.Cell.r_blocked);
    v_released = sum (fun r -> r.Cell.r_released);
    v_harmful_released = sum (fun r -> r.Cell.r_harmful_released);
    v_interventions = sum (fun r -> r.Cell.r_interventions);
    v_faults_injected = sum (fun r -> r.Cell.r_faults_injected);
    v_alerts = alerts;
    v_incident_cell = incident_cell;
    v_incident = incident;
    v_digest =
      Sha256.digest_hex
        (String.concat "\n"
           (Array.to_list (Array.map (fun r -> r.Cell.r_digest) reports)));
  }

let run_solo t ~cell_id =
  if cell_id < 0 || cell_id >= t.cells then
    invalid_arg "Fleet.run_solo: cell_id out of range";
  Cell.run (cell_config t ~cell_id)

let run t = view_of t (shard_map t (fun i -> Cell.run (cell_config t ~cell_id:i)))

let view_summary v =
  let cells =
    Array.to_list v.v_reports
    |> List.map (fun (r : Cell.report) ->
           Printf.sprintf
             "%-8s users=%d requests=%d blocked=%d released=%d harmful=%d faults=%d alerts=%d level=%s"
             r.Cell.r_name
             (List.length r.Cell.r_users)
             r.Cell.r_requests r.Cell.r_blocked r.Cell.r_released
             r.Cell.r_harmful_released r.Cell.r_faults_injected
             (List.length r.Cell.r_alerts)
             r.Cell.r_final_level)
  in
  String.concat "\n"
    ([
       Printf.sprintf "fleet    seed=%d cells=%d" v.v_seed v.v_cells;
     ]
    @ cells
    @ [
        Printf.sprintf
          "totals   requests=%d blocked=%d released=%d harmful=%d interventions=%d faults=%d alerts=%d"
          v.v_requests v.v_blocked v.v_released v.v_harmful_released
          v.v_interventions v.v_faults_injected
          (List.length v.v_alerts);
        (match v.v_incident_cell with
        | Some c -> Printf.sprintf "incident %s" (Cell.cell_name c)
        | None -> "incident none");
        Printf.sprintf "digest   %s" v.v_digest;
      ])
