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

   The field pass reads every field of a public record type that a
   lib/ interface exports, and fails on two things.  A field nothing
   reads: a read is a field access [e.f] or [f] in a record pattern
   (not [f = _]), in any unit, tests included; a structural comparison
   or a field kept by [{ e with ... }] reads nothing.  And an immutable
   field that code outside test/ gives a value at exactly one place,
   a record literal or a [{ e with f = v }], where that value is a
   constant: a literal, a constructor, tuple, array or list of
   constants, arithmetic on constants, or a path to a top-level value.
   Such a field is a setting no caller makes.  Another unit sees a
   label through its .cmi, so its uid is the interface's; inside the
   defining unit the .ml's label uids are numbered apart from the
   .mli's, so there a label is matched by type and field name.

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

(* Fields of exported record types kept on purpose though a check
   flags them, as "Module.type.field", one reason each.  An entry fails
   the check once its field is gone or passes both checks. *)
let field_allowlist : (string * string) list =
  [
    ( "Hierarchy.t.io_cost",
      "Core's fetch inlines the L1 probe of Hierarchy.read_value and reads \
       the uncached IO cost from the hierarchy it holds; the field keeps the \
       100 cycles in one place for both paths" );
    ( "Attest.measurement.firmware",
      "the firmware image is a measured datum, not a setting: a build ships \
       one image, and a verifier learns of another only through the root \
       that leaf 0 feeds; test_net's sample measurements attest other \
       images" );
  ]

type use = { mutable by_test : bool; mutable by_other : bool }

type export = {
  name : string;  (* Module.value *)
  where : string;  (* file:line of the [val] *)
  unit : string;  (* the compilation unit that exports it *)
  named : use;
  options : (string * use) list;  (* each [?label] of its type *)
}

type field = {
  fname : string;  (* Module.type.field *)
  fwhere : string;
  immutable : bool;
  read : use;
  mutable sets : (string * bool) list;  (* programs': where, constant *)
  mutable test_sets : int;
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

let where (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let arithmetic =
  [ "+"; "-"; "*"; "/"; "mod"; "~-"; "+."; "-."; "*."; "/."; "~-."; "**";
    "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr" ]

(* The values a structure binds at its top level, nested modules'
   included. *)
let rec top_level (str : structure) acc =
  List.fold_left
    (fun acc item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> let_bound_idents vbs @ acc
      | Tstr_module { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
          top_level s acc
      | _ -> acc)
    acc str.str_items

let rec constant tops e =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, es) | Texp_tuple es | Texp_array es ->
      List.for_all (constant tops) es
  | Texp_variant (_, a) -> Option.fold ~none:true ~some:(constant tops) a
  | Texp_ident (Pident id, _, _) -> List.exists (Ident.same id) tops
  | Texp_ident (Pdot _, _, _) -> true
  | Texp_apply
      ({ exp_desc = Texp_ident (Pdot (Pident m, op), _, _); _ }, args)
    when Ident.name m = "Stdlib" && List.mem op arithmetic ->
      List.for_all
        (fun (_, a) -> Option.fold ~none:false ~some:(constant tops) a)
        args
  | _ -> false

let () =
  if Array.length Sys.argv <> 2 then (
    prerr_endline "usage: exports.exe BUILD_CONTEXT_ROOT";
    exit 2);
  let cmts = List.map Cmt_format.read_cmt (cmt_files Sys.argv.(1) []) in
  let exports = Shape.Uid.Tbl.create 1024 in
  let fields = Shape.Uid.Tbl.create 512 and by_name = Hashtbl.create 512 in
  let fresh () = { by_test = false; by_other = false } in
  let add_record unit prefix (td : type_declaration) =
    match (td.typ_kind, td.typ_type.type_kind) with
    | Ttype_record lds, Type_record (labels, _) when td.typ_private = Public ->
        List.iter2
          (fun (ld : label_declaration) (l : Types.label_declaration) ->
            let f =
              { fname = prefix ^ td.typ_name.txt ^ "." ^ ld.ld_name.txt;
                fwhere = where ld.ld_loc;
                immutable = ld.ld_mutable = Immutable; read = fresh ();
                sets = []; test_sets = 0 }
            in
            Shape.Uid.Tbl.add fields l.ld_uid f;
            (* Same-unit uses are matched by type and field name. *)
            Hashtbl.add by_name (unit, td.typ_name.txt, ld.ld_name.txt) f)
          lds labels
    | _ -> ()
  in
  let rec add_sig unit prefix (sg : signature) =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_type (_, tds) -> List.iter (add_record unit prefix) tds
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
          (* A label of the unit's own type carries the .ml's uid. *)
          let field (l : Types.label_description) =
            match (l.lbl_uid, Types.get_desc l.lbl_res) with
            | Item { comp_unit; _ }, Tconstr (ty, _, _)
              when comp_unit = cmt.cmt_modname ->
                Hashtbl.find_opt by_name
                  (cmt.cmt_modname, Path.last ty, l.lbl_name)
            | uid, _ -> Shape.Uid.Tbl.find_opt fields uid
          in
          let read l = Option.iter (fun f -> mark f.read) (field l) in
          let tops = top_level str [] in
          let set l (e : expression) =
            Option.iter
              (fun f ->
                if test then f.test_sets <- f.test_sets + 1
                else f.sets <- (where e.exp_loc, constant tops e) :: f.sets)
              (field l)
          in
          let expr it e =
            (match e.exp_desc with
             | Texp_field (_, _, l) -> read l
             | Texp_record { fields; _ } ->
                 Array.iter
                   (function
                     | l, Overridden (_, e) -> set l e | _, Kept _ -> ())
                   fields
             | _ -> ());
            expr it e
          in
          let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit
              =
           fun it p ->
            (match p.pat_desc with
             | Tpat_record (fs, _) ->
                 List.iter
                   (function
                     | _, _, { pat_desc = Tpat_any; _ } -> ()
                     | _, l, _ -> read l)
                   fs
             | _ -> ());
            Tast_iterator.default_iterator.pat it p
          in
          let it = { Tast_iterator.default_iterator with expr; pat } in
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
  let fields =
    Shape.Uid.Tbl.fold (fun _ f acc -> f :: acc) fields []
    |> List.sort (fun a b -> compare a.fwhere b.fwhere)
  in
  let set_once f =
    match f.sets with
    | [ (at, true) ] when f.immutable -> Some at
    | _ -> None
  in
  List.iter
    (fun f ->
      if not (List.mem_assoc f.fname field_allowlist) then (
        if unused f.read then fail "%s: %s is read by no unit" f.fwhere f.fname;
        match set_once f with
        | Some at when f.test_sets = 0 ->
            fail "%s: %s is set only at %s, to a constant" f.fwhere f.fname at
        | Some at ->
            fail "%s: %s is set by programs only at %s, to a constant; only \
                  tests set it otherwise"
              f.fwhere f.fname at
        | None -> ()))
    fields;
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun f -> f.fname = name) fields with
      | None -> fail "field allowlist: %s names no field" name
      | Some f when set_once f = None && not (unused f.read) ->
          fail "field allowlist: %s passes both checks now" name
      | Some _ -> ())
    field_allowlist;
  let only_tests u = u.by_test && not u.by_other in
  Printf.printf
    "exports: %d lib/ interfaces and %d units (%d under test/) read; %d \
     exported values, %d allowlisted, %d named only by tests; %d optional \
     parameters, %d allowlisted, %d passed only by tests; %d record fields, \
     %d allowlisted, %d set once to a constant, %d read only by tests\n"
    !interfaces !units !test_units (List.length all) (List.length allowlist)
    (List.length (List.filter (fun x -> only_tests x.named) all))
    (List.length options) (List.length option_allowlist)
    (List.length (List.filter (fun (_, _, u) -> only_tests u) options))
    (List.length fields) (List.length field_allowlist)
    (List.length (List.filter (fun f -> set_once f <> None) fields))
    (List.length (List.filter (fun f -> only_tests f.read) fields));
  if !failed then exit 1
