(* Every exported value has a user.

   Reads the .cmti of every interface under lib/ and the .cmt of every
   compilation unit in a dune build context, and fails when a value
   that a lib/ interface exports is named by no other unit.  A use is
   an identifier whose value description carries the uid of the
   interface's [val]: another unit sees a module only through its
   .cmi, so the match is exact through module aliases and [open]s.
   It would miss uses through functors, [include] or first-class
   modules, none of which the tree has.

   Usage: exports.exe ROOT, where ROOT is the build context after
   [dune build @check] (_build/default from the repo root). *)

open Typedtree

(* Exports that no other unit names on purpose, one reason each.  An
   entry fails the check once its export is gone or has a user. *)
let allowlist : (string * string) list = []

type export = {
  name : string;  (* Module.value *)
  where : string;  (* file:line of the [val] *)
  unit : string;  (* the compilation unit that exports it *)
  mutable by_test : bool;  (* named by a unit under test/ *)
  mutable by_other : bool;  (* named by any other unit *)
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

let () =
  if Array.length Sys.argv <> 2 then (
    prerr_endline "usage: exports.exe BUILD_CONTEXT_ROOT";
    exit 2);
  let cmts = List.map Cmt_format.read_cmt (cmt_files Sys.argv.(1) []) in
  let exports = Shape.Uid.Tbl.create 1024 in
  let rec add_sig unit prefix (sg : signature) =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let p = vd.val_loc.loc_start in
            Shape.Uid.Tbl.add exports vd.val_val.val_uid
              { name = prefix ^ vd.val_name.txt;
                where = Printf.sprintf "%s:%d" p.pos_fname p.pos_lnum;
                unit; by_test = false; by_other = false }
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
          let expr it e =
            (match e.exp_desc with
             | Texp_ident (_, _, vd) -> (
                 match Shape.Uid.Tbl.find_opt exports vd.val_uid with
                 | Some x when x.unit <> cmt.cmt_modname ->
                     if test then x.by_test <- true else x.by_other <- true
                 | _ -> ())
             | _ -> ());
            Tast_iterator.default_iterator.expr it e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.structure it str
      | _ -> ())
    cmts;
  let all =
    Shape.Uid.Tbl.fold (fun _ x acc -> x :: acc) exports []
    |> List.sort (fun a b -> compare a.where b.where)
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
      if not (x.by_test || x.by_other || List.mem_assoc x.name allowlist)
      then fail "%s: %s is named by no other unit" x.where x.name)
    all;
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun x -> x.name = name) all with
      | None -> fail "allowlist: %s names no export" name
      | Some x when x.by_test || x.by_other ->
          fail "allowlist: %s has a user now" name
      | Some _ -> ())
    allowlist;
  Printf.printf
    "exports: %d lib/ interfaces and %d units (%d under test/) read; %d \
     exported values, %d allowlisted, %d named only by tests\n"
    !interfaces !units !test_units (List.length all) (List.length allowlist)
    (List.length (List.filter (fun x -> x.by_test && not x.by_other) all));
  if !failed then exit 1
