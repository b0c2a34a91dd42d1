(* Every exported value has a user, and every option a program that
   passes it.

   Reads the .cmti of every interface under lib/ and the .cmt of every
   compilation unit in a dune build context, and fails when a value
   that a lib/ interface exports is named by no other unit.  A use is
   an identifier whose value description carries the uid of the
   interface's [val]: another unit sees a module only through its
   .cmi, so the match is exact through module aliases and [open]s.
   It would miss uses through functors, [include] or first-class
   modules, none of which the tree has.

   The option pass then fails on each [?label] in an exported value's
   type that no unit outside test/ and outside the exporting unit
   passes.  An application passes a label when it supplies it, as
   [~label:v] or [?label:v]; an optional argument the call leaves out
   is a ghost [None] at [Location.none] in the typed tree.  Naming the
   function anywhere but at the head of an application (passing it as
   a value, or applying it partially past the label) counts as passing
   every label, since the option stays open to whoever calls it.

   Usage: exports.exe ROOT, where ROOT is the build context after
   [dune build @check] (_build/default from the repo root). *)

open Typedtree

(* Exports that no other unit names on purpose, one reason each.  An
   entry fails the check once its export is gone or has a user. *)
let allowlist : (string * string) list = []

(* Options that only tests pass on purpose, as "Module.value ?label",
   one reason each: the test that needs it, and why the shipped value
   cannot reach that behaviour within the test's time.  An entry fails
   the check once its option is gone or a program passes it. *)
let option_allowlist : (string * string) list =
  [
    ( "Scenarios.run_monitored ?mode",
      "test_perf_equiv's monitored replays compare the shipped translating \
       rig against an interpreting and a profiling one; the shipped mode is \
       the side under test, not the reference" );
    ( "Core.create ?mmu",
      "test_perf_equiv's one-word-pages case builds a core on a one-word-page \
       MMU, where the fetch's empty-hint sentinels are real vpages; a core's \
       own MMU has 256-word pages" );
    ( "Mmu.create ?page_size",
      "test_perf_equiv's one-word-pages case: only one-word pages make every \
       int a vpage; 256-word pages never reach the sentinel" );
    ( "Telemetry.create ?max_events",
      "test_telemetry's conservation and snapshot-reference properties and \
       test_obs's late-registry case reach the drop path within 1 to 32 \
       events; the shipped 65 536-event buffer needs that many events per \
       case, hundreds of cases over" );
    ( "Timeseries.create ?max_windows",
      "test_obs's store-reference property reaches the ring's wrap within 80 \
       records and compares every query after each; the shipped 512 windows \
       would need over 512 closes per case" );
    ( "Cell.config ?roster",
      "test_vet's cell roster gate: no program deploys a roster to a cell, \
       and the empty default skips the gate" );
    ( "Rag_pipeline.run ?shield_retrieved",
      "test_hv's unshielded-RAG ablation is the control that shows the \
       retrieval shield is what stops the poisoned document; the shipped \
       pipeline always shields" );
  ]

type use = { mutable by_test : bool; mutable by_other : bool }

type export = {
  name : string;  (* Module.value *)
  where : string;  (* file:line of the [val] *)
  unit : string;  (* the compilation unit that exports it *)
  named : use;
  options : (string * use) list;  (* each [?label] of its type *)
}

let rec cmt_files dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then cmt_files path acc
      else if Filename.check_suffix name ".cmt"
              || Filename.check_suffix name ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

let source (cmt : Cmt_format.cmt_infos) =
  Option.value cmt.cmt_sourcefile ~default:""

let under top cmt = String.starts_with ~prefix:(top ^ "/") (source cmt)

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let unused u = not (u.by_test || u.by_other)

let () =
  if Array.length Sys.argv <> 2 then (
    prerr_endline "usage: exports.exe BUILD_CONTEXT_ROOT";
    exit 2);
  let cmts = List.map Cmt_format.read_cmt (cmt_files Sys.argv.(1) []) in
  let exports = Shape.Uid.Tbl.create 1024 in
  let fresh () = { by_test = false; by_other = false } in
  let rec add_sig unit prefix (sg : signature) =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let p = vd.val_loc.loc_start in
            Shape.Uid.Tbl.add exports vd.val_val.val_uid
              { name = prefix ^ vd.val_name.txt;
                where = Printf.sprintf "%s:%d" p.pos_fname p.pos_lnum;
                unit; named = fresh ();
                options =
                  List.map (fun l -> (l, fresh ()))
                    (optional_labels vd.val_val.val_type) }
        | Tsig_module { md_name = { txt = Some m; _ };
                        md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            add_sig unit (prefix ^ m ^ ".") sg
        | _ -> ())
      sg.sig_items
  in
  let interfaces = ref 0 and units = ref 0 and test_units = ref 0 in
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Interface sg when under "lib" cmt ->
          incr interfaces;
          let m = Filename.(remove_extension (basename (source cmt))) in
          add_sig cmt.cmt_modname (String.capitalize_ascii m ^ ".") sg
      | _ -> ())
    cmts;
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Implementation str ->
          incr units;
          let test = under "test" cmt in
          if test then incr test_units;
          let mark u = if test then u.by_test <- true else u.by_other <- true in
          let other (vd : Types.value_description) =
            match Shape.Uid.Tbl.find_opt exports vd.val_uid with
            | Some x when x.unit <> cmt.cmt_modname -> mark x.named; Some x
            | _ -> None
          in
          (* An argument the typed tree lists under an optional label is
             passed unless it is the ghost [None] of an omitted one;
             [None] (a partial application) leaves the label open. *)
          let passed x (label, arg) =
            match (label, arg) with
            | Asttypes.Optional _, Some a when a.exp_loc = Location.none -> ()
            | Asttypes.Optional l, _ ->
                Option.iter mark (List.assoc_opt l x.options)
            | _ -> ()
          in
          let expr it e =
            match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
                Option.iter (fun x -> List.iter (passed x) args) (other vd);
                List.iter
                  (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a)
                  args
            | Texp_ident (_, _, vd) ->
                Option.iter
                  (fun x -> List.iter (fun (_, u) -> mark u) x.options)
                  (other vd)
            | _ -> Tast_iterator.default_iterator.expr it e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.structure it str
      | _ -> ())
    cmts;
  let all =
    Shape.Uid.Tbl.fold (fun _ x acc -> x :: acc) exports []
    |> List.sort (fun a b -> compare a.where b.where)
  in
  let options =
    List.concat_map
      (fun x -> List.map (fun (l, u) -> (x, x.name ^ " ?" ^ l, u)) x.options)
      all
  in
  let failed = ref false in
  let fail fmt =
    failed := true;
    Printf.printf (fmt ^^ "\n")
  in
  if !interfaces = 0 then fail "no lib/ .cmti read under %s" Sys.argv.(1);
  if !test_units = 0 then fail "no test/ .cmt read under %s" Sys.argv.(1);
  List.iter
    (fun x ->
      if unused x.named && not (List.mem_assoc x.name allowlist) then
        fail "%s: %s is named by no other unit" x.where x.name)
    all;
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun x -> x.name = name) all with
      | None -> fail "allowlist: %s names no export" name
      | Some x when not (unused x.named) ->
          fail "allowlist: %s has a user now" name
      | Some _ -> ())
    allowlist;
  List.iter
    (fun (x, name, u) ->
      if (not u.by_other) && not (List.mem_assoc name option_allowlist) then
        fail "%s: %s is %s" x.where name
          (if u.by_test then "passed only by tests" else "passed by no program"))
    options;
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun (_, n, _) -> n = name) options with
      | None -> fail "option allowlist: %s names no option" name
      | Some (_, _, u) when u.by_other ->
          fail "option allowlist: %s is passed by a program now" name
      | Some _ -> ())
    option_allowlist;
  let only_tests u = u.by_test && not u.by_other in
  Printf.printf
    "exports: %d lib/ interfaces and %d units (%d under test/) read; %d \
     exported values, %d allowlisted, %d named only by tests; %d optional \
     parameters, %d allowlisted, %d passed only by tests\n"
    !interfaces !units !test_units (List.length all) (List.length allowlist)
    (List.length (List.filter (fun x -> only_tests x.named) all))
    (List.length options) (List.length option_allowlist)
    (List.length (List.filter (fun (_, _, u) -> only_tests u) options));
  if !failed then exit 1
