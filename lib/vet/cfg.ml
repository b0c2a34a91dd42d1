module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Asm = Guillotine_isa.Asm

let page_words = 256

(* How an instruction leaves: [Branch] carries the taken target, and
   [Indirect] ([Jr]) takes its successors from [jr_targets], if any. *)
type terminator =
  | Fallthrough
  | Jump of int
  | Branch of int
  | Indirect
  | Stop
  | Return
  | Poison

type block = { leader : int; instrs : (int * Isa.instr) list }

type t = {
  origin : int;
  code_words : int;
  image_words : int;
  instrs : Isa.instr option array;
  succs : int list array;
  preds : int list array;
  reachable : bool array;
  roots : int list;
  scc_id : int array;
  in_loop : bool array;
  blocks : block list;
  jump_escapes : (int * int) list;
  fall_off_code : int list;
  unresolved_jr : int list;
  poisoned : int list;
  vector_escapes : (int * int) list;
}

type block_map = {
  map_code_words : int;
  map_block_of : int array;
  map_leaders : int array;
  map_pcs : int array array;
}

let block_map t =
  let nblocks = List.length t.blocks in
  let block_of = Array.make t.code_words nblocks in
  let leaders = Array.make nblocks 0 in
  let pcs = Array.make nblocks [||] in
  List.iteri
    (fun b (blk : block) ->
      leaders.(b) <- blk.leader;
      pcs.(b) <- Array.of_list (List.map fst blk.instrs);
      List.iter
        (fun (addr, _) ->
          if addr >= 0 && addr < t.code_words then block_of.(addr) <- b)
        blk.instrs)
    t.blocks;
  { map_code_words = t.code_words; map_block_of = block_of;
    map_leaders = leaders; map_pcs = pcs }

let reachable_instr_count t =
  let n = ref 0 in
  Array.iteri
    (fun i r -> if r && t.instrs.(i) <> None then incr n)
    t.reachable;
  !n

(* Raw 64-bit word at an absolute address: the loaded image where it
   covers the address, zero-filled DRAM elsewhere in the code region. *)
let word_at (program : Asm.program) addr =
  let rel = addr - program.origin in
  if rel >= 0 && rel < Array.length program.words then program.words.(rel)
  else 0L

let terminator_of instr =
  match instr with
  | None -> Poison
  | Some i -> (
      match (i : Isa.instr) with
      | Isa.Halt -> Stop
      | Isa.Iret -> Return
      | Isa.Jmp target | Isa.Jal (_, target) -> Jump target
      | Isa.Jr _ -> Indirect
      | Isa.Beq (_, _, t) | Isa.Bne (_, _, t)
      | Isa.Blt (_, _, t) | Isa.Bge (_, _, t) ->
          Branch t
      | _ -> Fallthrough)

let build ?(jr_targets = []) ~code_pages (program : Asm.program) =
  if code_pages <= 0 then invalid_arg "Cfg.build: code_pages must be positive";
  let code_words = code_pages * page_words in
  let image_words = Array.length program.words in
  let instrs =
    Array.init code_words (fun addr -> Encoding.decode (word_at program addr))
  in
  let in_code addr = addr >= 0 && addr < code_words in
  let jump_escapes = ref [] in
  let fall_off_code = ref [] in
  let unresolved_jr = ref [] in
  let jr_lookup addr =
    match List.assoc_opt addr jr_targets with
    | Some targets -> targets
    | None -> []
  in
  let succs =
    Array.init code_words (fun addr ->
        let fallthrough () =
          if in_code (addr + 1) then [ addr + 1 ]
          else (
            fall_off_code := addr :: !fall_off_code;
            [])
        in
        let direct target =
          if in_code target then [ target ]
          else (
            jump_escapes := (addr, target) :: !jump_escapes;
            [])
        in
        match terminator_of instrs.(addr) with
        | Poison | Stop | Return -> []
        | Fallthrough -> fallthrough ()
        | Jump target -> direct target
        | Branch taken -> direct taken @ fallthrough ()
        | Indirect -> (
            match jr_lookup addr with
            | [] ->
                unresolved_jr := addr :: !unresolved_jr;
                []
            | targets ->
                List.concat_map
                  (fun target ->
                    if in_code target then [ target ]
                    else (
                      jump_escapes := (addr, target) :: !jump_escapes;
                      []))
                  targets))
  in
  (* Roots: the entry pc, plus every nonzero exception-vector slot the
     image installs — a handler body is entered asynchronously, never by
     a static edge, so it must seed reachability itself. *)
  let vector_roots = ref [] in
  let vector_escapes = ref [] in
  for slot = 0 to Isa.vector_count - 1 do
    let vaddr = Isa.vector_base + slot in
    let handler = Int64.to_int (word_at program vaddr) in
    if handler <> 0 then
      if in_code handler then vector_roots := (slot, handler) :: !vector_roots
      else vector_escapes := (slot, handler) :: !vector_escapes
  done;
  let vector_roots = List.rev !vector_roots in
  let vector_escapes = List.rev !vector_escapes in
  let roots =
    let entry = if in_code program.origin then [ program.origin ] else [] in
    let handlers = List.map snd vector_roots in
    List.sort_uniq compare (entry @ handlers)
  in
  (* Reachability: BFS over successor edges from the roots. *)
  let reachable = Array.make code_words false in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      reachable.(r) <- true;
      Queue.add r queue)
    roots;
  while not (Queue.is_empty queue) do
    let addr = Queue.pop queue in
    List.iter
      (fun s ->
        if not reachable.(s) then (
          reachable.(s) <- true;
          Queue.add s queue))
      succs.(addr)
  done;
  let preds = Array.make code_words [] in
  Array.iteri
    (fun addr ss ->
      if reachable.(addr) then
        List.iter (fun s -> preds.(s) <- addr :: preds.(s)) ss)
    succs;
  Array.iteri (fun i ps -> preds.(i) <- List.rev ps) preds;
  let poisoned =
    let acc = ref [] in
    for addr = code_words - 1 downto 0 do
      if reachable.(addr) && instrs.(addr) = None then acc := addr :: !acc
    done;
    !acc
  in
  (* Tarjan SCC (iterative) over the reachable subgraph; an address is
     in a loop when its component has >1 member or a self-edge. *)
  let scc_id = Array.make code_words (-1) in
  let in_loop = Array.make code_words false in
  let index = Array.make code_words (-1) in
  let lowlink = Array.make code_words 0 in
  let on_stack = Array.make code_words false in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_scc = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then (
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w))
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let members = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            scc_id.(w) <- !next_scc;
            members := w :: !members;
            if w = v then continue := false
      done;
      (match !members with
      | [ only ] ->
          if List.mem only succs.(only) then in_loop.(only) <- true
      | _ :: _ :: _ -> List.iter (fun m -> in_loop.(m) <- true) !members
      | [] -> ());
      incr next_scc
    end
  in
  for addr = 0 to code_words - 1 do
    if reachable.(addr) && index.(addr) < 0 then strongconnect addr
  done;
  (* Basic blocks over the reachable region: a leader is a root, a
     branch/jump target, or the word after a control transfer. *)
  let leader = Array.make code_words false in
  List.iter (fun r -> leader.(r) <- true) roots;
  for addr = 0 to code_words - 1 do
    if reachable.(addr) then
      match terminator_of instrs.(addr) with
      | Fallthrough -> ()
      | _ ->
          if addr + 1 < code_words && reachable.(addr + 1) then
            leader.(addr + 1) <- true;
          List.iter (fun s -> leader.(s) <- true) succs.(addr)
  done;
  (* Joins: any address with more than one predecessor starts a block. *)
  Array.iteri
    (fun addr ps -> if reachable.(addr) && List.length ps > 1 then
        leader.(addr) <- true)
    preds;
  let blocks = ref [] in
  for addr = code_words - 1 downto 0 do
    if reachable.(addr) && leader.(addr) then begin
      let body = ref [] in
      let cursor = ref addr in
      let continue = ref true in
      while !continue do
        let a = !cursor in
        (match instrs.(a) with
        | Some i -> body := (a, i) :: !body
        | None -> ());
        (match terminator_of instrs.(a) with
        | Fallthrough ->
            if
              a + 1 >= code_words
              || (not reachable.(a + 1))
              || leader.(a + 1)
            then continue := false
            else cursor := a + 1
        | _ -> continue := false)
      done;
      blocks := { leader = addr; instrs = List.rev !body } :: !blocks
    end
  done;
  {
    origin = program.origin;
    code_words;
    image_words;
    instrs;
    succs;
    preds;
    reachable;
    roots;
    scc_id;
    in_loop;
    blocks = !blocks;
    (* Successor construction visited every address; only edges from
       reachable code are findings. *)
    jump_escapes =
      List.sort compare
        (List.filter (fun (a, _) -> reachable.(a)) !jump_escapes);
    fall_off_code =
      List.sort compare (List.filter (fun a -> reachable.(a)) !fall_off_code);
    unresolved_jr =
      List.sort compare (List.filter (fun a -> reachable.(a)) !unresolved_jr);
    poisoned;
    vector_escapes;
  }
