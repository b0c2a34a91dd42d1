(* Fleet regression harness: the cell-centric deployment API.

   The contract under test is the one the fleet redesign is built on:
   a fleet run sharded across OCaml domains is byte-identical to
   running every cell solo on the calling domain and concatenating —
   and a fault (storm or rogue model) in one cell changes that cell's
   bytes only.

   The CI seed matrix re-runs everything at other seeds via the
   FAULTS_SEED environment variable (alcotest owns argv, so an env var
   is the clean channel).  CI's `fleet --domains 1` step is mirrored
   here by the domain-invariance test, which compares a multi-domain
   run against a single-domain run of the same fleet.

   Cell runs are expensive (each builds a full deployment, dominated by
   signature keygen), so the fixtures below are computed lazily once
   and shared across tests. *)

module Fleet = Guillotine_fleet.Fleet
module Cell = Guillotine_fleet.Cell
module Sha256 = Guillotine_crypto.Sha256

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let matrix_seed =
  match Sys.getenv_opt "FAULTS_SEED" with
  | Some s -> (try int_of_string s with Failure _ -> 1)
  | None -> 1

(* Small but non-trivial: 4 cells, 8 users (2 per cell), 2 requests
   each.  The deployment build dominates runtime, so trimming requests
   keeps the suite honest without making it slow. *)
let cells = 4
let users = 8
let requests_per_user = 2
let max_tokens = 8

let fleet ?rogue ?storm ?toctou ?domains () =
  Fleet.create ~seed:matrix_seed ~users ~requests_per_user ~max_tokens ?rogue
    ?storm ?toctou ?domains ~cells ()

(* Shared fixtures (forced at most once each). *)
let v_sharded = lazy (Fleet.run (fleet ()))
let v_single = lazy (Fleet.run (fleet ~domains:1 ()))
let solos =
  lazy
    (let f = fleet () in
     Array.init cells (fun i -> Fleet.run_solo f ~cell_id:i))
let v_storm = lazy (Fleet.run (fleet ~storm:2 ~domains:1 ()))
let v_toctou = lazy (Fleet.run (fleet ~toctou:1 ~domains:1 ()))

(* ------------------------------ router ----------------------------- *)

let test_router () =
  let f = fleet () in
  for u = 0 to users - 1 do
    Alcotest.(check int)
      (Printf.sprintf "route user %d" u)
      (u mod cells)
      (Fleet.route f ~user:u)
  done;
  (* users_for shards form a partition of 0..users-1, and every user
     lands in the shard of the cell the router picks. *)
  let shards =
    List.init cells (fun c -> Cell.users_for ~users ~cells ~cell_id:c)
  in
  let all = List.sort compare (List.concat shards) in
  Alcotest.(check (list int)) "shards partition the users"
    (List.init users Fun.id) all;
  List.iteri
    (fun c shard ->
      List.iter
        (fun u ->
          Alcotest.(check int)
            (Printf.sprintf "user %d's shard is its route" u)
            (Fleet.route f ~user:u) c)
        shard)
    shards;
  (* Idle cells are legal: a 4-cell fleet with 2 users has two empty
     shards. *)
  Alcotest.(check (list int)) "idle shard"
    [] (Cell.users_for ~users:2 ~cells:4 ~cell_id:3)

(* ----------------------- fleet == concatenation -------------------- *)

let test_fleet_equals_concat () =
  let v = Lazy.force v_sharded in
  let solos = Lazy.force solos in
  for i = 0 to cells - 1 do
    let fr = v.Fleet.v_reports.(i) and sr = solos.(i) in
    Alcotest.(check string)
      (Printf.sprintf "cell %d transcript" i)
      sr.Cell.r_transcript fr.Cell.r_transcript;
    Alcotest.(check string)
      (Printf.sprintf "cell %d digest" i)
      sr.Cell.r_digest fr.Cell.r_digest;
    Alcotest.(check string)
      (Printf.sprintf "cell %d summary" i)
      (Cell.report_summary sr) (Cell.report_summary fr)
  done;
  (* The fleet digest is exactly the hash of the solo digests in cell
     order — nothing fleet-level leaks into it. *)
  let expected =
    Sha256.digest_hex
      (String.concat "\n"
         (Array.to_list (Array.map (fun r -> r.Cell.r_digest) solos)))
  in
  Alcotest.(check string) "fleet digest" expected v.Fleet.v_digest

let test_totals_are_sums () =
  let v = Lazy.force v_sharded in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 v.Fleet.v_reports in
  Alcotest.(check int) "requests" (sum (fun r -> r.Cell.r_requests))
    v.Fleet.v_requests;
  Alcotest.(check int) "requests count" (users * requests_per_user)
    v.Fleet.v_requests;
  Alcotest.(check int) "blocked" (sum (fun r -> r.Cell.r_blocked))
    v.Fleet.v_blocked;
  Alcotest.(check int) "released" (sum (fun r -> r.Cell.r_released))
    v.Fleet.v_released

(* ------------------------- domain invariance ------------------------ *)

let test_domains_do_not_change_bytes () =
  let v4 = Lazy.force v_sharded and v1 = Lazy.force v_single in
  Alcotest.(check string) "digest" v1.Fleet.v_digest v4.Fleet.v_digest;
  Alcotest.(check string) "summary"
    (Fleet.view_summary v1) (Fleet.view_summary v4)

(* --------------------------- the solo path -------------------------- *)

let test_one_cell_fleet_is_the_solo_path () =
  let f =
    Fleet.create ~seed:matrix_seed ~users:2 ~requests_per_user ~max_tokens
      ~cells:1 ()
  in
  let v = Fleet.run f in
  let direct = Cell.run (Fleet.cell_config f ~cell_id:0) in
  Alcotest.(check string) "transcript"
    direct.Cell.r_transcript v.Fleet.v_reports.(0).Cell.r_transcript;
  Alcotest.(check int) "route" 0 (Fleet.route f ~user:1)

(* -------------------------- blast isolation ------------------------- *)

(* A fault storm against cell 2 must change cell 2's bytes only: cells
   0, 1 and 3 stay byte-identical to the storm-free fleet. *)
let test_storm_stays_in_its_cell () =
  let plain = Lazy.force v_sharded and storm = Lazy.force v_storm in
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "cell %d untouched by the storm" i)
        plain.Fleet.v_reports.(i).Cell.r_digest
        storm.Fleet.v_reports.(i).Cell.r_digest)
    [ 0; 1; 3 ];
  let hit = storm.Fleet.v_reports.(2) in
  Alcotest.(check bool) "storm faults landed" true
    (hit.Cell.r_faults_injected > 0);
  Alcotest.(check bool) "storm cell diverged" true
    (not
       (String.equal hit.Cell.r_digest
          plain.Fleet.v_reports.(2).Cell.r_digest));
  Alcotest.(check (option int)) "incident attributed to cell 2" (Some 2)
    storm.Fleet.v_incident_cell;
  (match storm.Fleet.v_incident with
  | None -> Alcotest.fail "storm produced no incident report"
  | Some text ->
    Alcotest.(check bool) "incident names cell-2" true
      (contains ~needle:"cell-2" text));
  Alcotest.(check bool) "fleet summary points at cell-2" true
    (contains ~needle:"incident cell-2" (Fleet.view_summary storm))

(* A post-admission adversary — the vet/install TOCTOU race — turning
   hostile inside cell 1 must change cell 1's bytes only: cells 0, 2
   and 3 stay byte-identical to their solo runs, and the fleet view
   attributes the incident to cell-1 by name. *)
let test_toctou_stays_in_its_cell () =
  let solos = Lazy.force solos and toctou = Lazy.force v_toctou in
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "cell %d byte-identical to its solo run" i)
        solos.(i).Cell.r_digest
        toctou.Fleet.v_reports.(i).Cell.r_digest)
    [ 0; 2; 3 ];
  let hit = toctou.Fleet.v_reports.(1) in
  Alcotest.(check bool) "adversary cell diverged" true
    (not (String.equal hit.Cell.r_digest solos.(1).Cell.r_digest));
  Alcotest.(check bool) "runtime defences alerted" true
    (hit.Cell.r_alerts <> []);
  Alcotest.(check bool) "adversary cell left standard isolation" true
    (hit.Cell.r_final_level <> "standard");
  Alcotest.(check (option int)) "incident attributed to cell 1" (Some 1)
    toctou.Fleet.v_incident_cell;
  (match toctou.Fleet.v_incident with
  | None -> Alcotest.fail "the adversary produced no incident report"
  | Some text ->
    Alcotest.(check bool) "incident names cell-1" true
      (contains ~needle:"cell-1" text));
  Alcotest.(check bool) "fleet summary points at cell-1" true
    (contains ~needle:"incident cell-1" (Fleet.view_summary toctou))

(* ----------------------------- validation --------------------------- *)

let test_create_validation () =
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with
      | exception Invalid_argument _ -> true
      | (_ : Fleet.t) -> false)
  in
  rejects "cells < 1" (fun () -> Fleet.create ~cells:0 ());
  rejects "rogue out of range" (fun () -> Fleet.create ~cells:2 ~rogue:2 ());
  rejects "storm out of range" (fun () -> Fleet.create ~cells:2 ~storm:(-1) ());
  rejects "toctou out of range" (fun () -> Fleet.create ~cells:2 ~toctou:2 ());
  rejects "domains < 1" (fun () -> Fleet.create ~cells:2 ~domains:0 ());
  (* domains clamp to cells rather than erroring. *)
  Alcotest.(check int) "domains clamped" 2
    (Fleet.domains (Fleet.create ~cells:2 ~domains:8 ()))

let () =
  Alcotest.run "fleet"
    [
      ( "router",
        [
          Alcotest.test_case "session affinity partition" `Quick test_router;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fleet == concat of solo runs" `Quick
            test_fleet_equals_concat;
          Alcotest.test_case "totals are sums of cells" `Quick
            test_totals_are_sums;
          Alcotest.test_case "domain count changes no bytes" `Quick
            test_domains_do_not_change_bytes;
          Alcotest.test_case "one-cell fleet is the solo path" `Quick
            test_one_cell_fleet_is_the_solo_path;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "storm stays in its cell" `Quick
            test_storm_stays_in_its_cell;
          Alcotest.test_case "toctou adversary stays in its cell" `Quick
            test_toctou_stays_in_its_cell;
        ] );
    ]
