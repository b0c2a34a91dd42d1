(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe t1 f4      # a subset

   Each experiment id corresponds to a row of DESIGN.md's experiment
   index; the output tables are recorded in EXPERIMENTS.md.  Host
   performance is measured by `guillotine bench`. *)

let banner () =
  print_endline "=====================================================================";
  print_endline " GUILLOTINE reproduction benchmark suite (HotOS 2025)";
  print_endline " One table per experiment; see DESIGN.md for the index and";
  print_endline " EXPERIMENTS.md for interpretation against the paper's claims.";
  print_endline "====================================================================="

let run_one id =
  match List.assoc_opt id Experiments.all with
  | Some f ->
    print_newline ();
    f ();
    true
  | None ->
    Printf.eprintf "unknown experiment %S; known: %s\n" id
      (String.concat " " (List.map fst Experiments.all));
    false

let () =
  banner ();
  let args = List.tl (Array.to_list Sys.argv) in
  let ok =
    match args with
    | [] ->
      List.iter
        (fun (_, f) ->
          print_newline ();
          f ())
        Experiments.all;
      true
    | ids -> List.for_all run_one ids
  in
  if not ok then exit 1
