(* Tests for the HSM quorum logic: the 5/7-relax, 3/7-restrict
   asymmetry, forgery/duplicate/replay rejection, and a property that a
   sub-threshold coalition can never relax. *)

module Hsm = Guillotine_hsm.Hsm
module Prng = Guillotine_util.Prng

let make ?(seed = 1L) () = Hsm.create ~key_height:3 (Prng.create seed)

let approvals hsm proposal ids = List.map (fun i -> Hsm.approve hsm ~admin:i proposal) ids

let test_defaults () =
  let h = make () in
  Alcotest.(check int) "admins" 7 (Hsm.admin_count h);
  Alcotest.(check int) "relax" 5 (Hsm.relax_threshold h);
  Alcotest.(check int) "restrict" 3 (Hsm.restrict_threshold h)

let test_relax_needs_five () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"set-isolation" ~payload:"standard" in
  let v4 = Hsm.authorize h ~kind:`Relax p (approvals h p [ 0; 1; 2; 3 ]) in
  Alcotest.(check bool) "4 denied" false v4.Hsm.granted;
  let v5 = Hsm.authorize h ~kind:`Relax p (approvals h p [ 0; 1; 2; 3; 4 ]) in
  Alcotest.(check bool) "5 granted" true v5.Hsm.granted

let test_restrict_needs_three () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"set-isolation" ~payload:"severed" in
  let v2 = Hsm.authorize h ~kind:`Restrict p (approvals h p [ 0; 1 ]) in
  Alcotest.(check bool) "2 denied" false v2.Hsm.granted;
  let v3 = Hsm.authorize h ~kind:`Restrict p (approvals h p [ 5; 6; 0 ]) in
  Alcotest.(check bool) "3 granted" true v3.Hsm.granted

let test_duplicates_do_not_count () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"a" ~payload:"b" in
  (* Admin 0 signs five times: still one approval. *)
  let dupes = approvals h p [ 0; 0; 0; 0; 0 ] in
  let v = Hsm.authorize h ~kind:`Relax p dupes in
  Alcotest.(check bool) "denied" false v.Hsm.granted;
  Alcotest.(check int) "one valid" 1 v.Hsm.valid_approvals;
  Alcotest.(check int) "four rejected" 4 (List.length v.Hsm.rejected)

let test_forgeries_rejected () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"a" ~payload:"b" in
  let forged = List.init 7 (fun i -> Hsm.forge_approval h ~claimed_admin:i p) in
  let v = Hsm.authorize h ~kind:`Relax p forged in
  Alcotest.(check bool) "denied" false v.Hsm.granted;
  Alcotest.(check int) "zero valid" 0 v.Hsm.valid_approvals

let test_unknown_admin_rejected () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"a" ~payload:"b" in
  let v = Hsm.authorize h ~kind:`Restrict p [ Hsm.forge_approval h ~claimed_admin:42 p ] in
  Alcotest.(check (list (pair int string))) "reason" [ (42, "unknown admin") ]
    v.Hsm.rejected

let test_approvals_bound_to_proposal () =
  let h = make () in
  let p1 = Hsm.new_proposal h ~action:"set-isolation" ~payload:"standard" in
  let p2 = Hsm.new_proposal h ~action:"set-isolation" ~payload:"standard" in
  (* Same action and payload, different nonce: approvals for p1 must not
     authorize p2 (replay resistance). *)
  let stolen = approvals h p1 [ 0; 1; 2; 3; 4 ] in
  let v = Hsm.authorize h ~kind:`Relax p2 stolen in
  Alcotest.(check bool) "replay denied" false v.Hsm.granted;
  Alcotest.(check int) "none valid" 0 v.Hsm.valid_approvals

let test_spent_counter () =
  let h = make () in
  let p = Hsm.new_proposal h ~action:"a" ~payload:"b" in
  ignore (approvals h p [ 0; 0; 1 ]);
  Alcotest.(check int) "admin 0 spent 2" 2 (Hsm.approvals_spent h ~admin:0);
  Alcotest.(check int) "admin 1 spent 1" 1 (Hsm.approvals_spent h ~admin:1)

let prop_subthreshold_coalition_never_relaxes =
  QCheck.Test.make ~name:"coalition of <5 (plus forgeries) never relaxes" ~count:30
    QCheck.(pair (int_range 0 4) (int_range 0 6))
    (fun (coalition, seed) ->
      let h = make ~seed:(Int64.of_int (100 + seed)) () in
      let p = Hsm.new_proposal h ~action:"set-isolation" ~payload:"standard" in
      let real = approvals h p (List.init coalition Fun.id) in
      let forged =
        List.init (7 - coalition) (fun i ->
            Hsm.forge_approval h ~claimed_admin:(coalition + i) p)
      in
      let v = Hsm.authorize h ~kind:`Relax p (real @ forged @ real) in
      not v.Hsm.granted)

(* The social-engineering attack's shape: a second HSM on the PRNG the
   first one's admin keys drew from.  The nonce, captured while admin
   keys were generated inside [create], moves if any key draw moves. *)
let test_second_hsm_nonce_pinned () =
  let prng = Prng.create 17L in
  ignore (Hsm.create prng);
  let h = Hsm.create ~admins:1 ~relax_threshold:1 ~restrict_threshold:1 prng in
  let p = Hsm.new_proposal h ~action:"set-isolation" ~payload:"standard" in
  Alcotest.(check string) "nonce" "09b52d02fa74ac4f733725f6da63141c"
    (Guillotine_crypto.Sha256.hex p.Hsm.nonce)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "hsm"
    [
      ( "quorum",
        [
          Alcotest.test_case "defaults 7/5/3" `Quick test_defaults;
          Alcotest.test_case "relax needs five" `Quick test_relax_needs_five;
          Alcotest.test_case "restrict needs three" `Quick test_restrict_needs_three;
          Alcotest.test_case "duplicates don't count" `Quick test_duplicates_do_not_count;
          Alcotest.test_case "forgeries rejected" `Quick test_forgeries_rejected;
          Alcotest.test_case "unknown admin rejected" `Quick test_unknown_admin_rejected;
          Alcotest.test_case "approvals bound to proposal" `Quick
            test_approvals_bound_to_proposal;
          Alcotest.test_case "spent counter" `Quick test_spent_counter;
          Alcotest.test_case "second HSM's nonce pinned" `Quick
            test_second_hsm_nonce_pinned;
          qc prop_subthreshold_coalition_never_relaxes;
        ] );
    ]
