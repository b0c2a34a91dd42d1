module Isa = Guillotine_isa.Isa

type ivl = { lo : int; hi : int }

let inf_pos = max_int
let inf_neg = min_int
let top = { lo = inf_neg; hi = inf_pos }
let const n = { lo = n; hi = n }

let is_const i =
  if i.lo = i.hi && i.lo <> inf_neg && i.hi <> inf_pos then Some i.lo else None

type value = { ivl : ivl; timing : bool }
type range = { base : int; len : int; writable : bool }
type access_kind = Read | Write | Flush
type access_class = In_bounds | May_escape | Escapes

type access = {
  addr : int;
  kind : access_kind;
  target : ivl;
  cls : access_class;
  tainted : bool;
}

type branch_taint = { addr : int; reg : Isa.reg }

type result = {
  pre : value array option array;
  accesses : access list;
  tainted_branches : branch_taint list;
  jr_resolved : (int * int list) list;
  widenings : int;
}

(* ---- saturating interval arithmetic -------------------------------- *)
(* The sentinels [min_int]/[max_int] play the infinities, so every
   operation must keep them out of ordinary machine arithmetic.  The
   simulated machine word is the OCaml int itself, so no wrap-around
   modelling is needed — only saturation toward the sentinels. *)

let finite v = v <> inf_neg && v <> inf_pos

let sat_add a b =
  if a = inf_pos || b = inf_pos then inf_pos
  else if a = inf_neg || b = inf_neg then inf_neg
  else
    let s = a + b in
    if a > 0 && b > 0 && s < 0 then inf_pos
    else if a < 0 && b < 0 && s >= 0 then inf_neg
    else s

let sat_neg a = if a = inf_pos then inf_neg else if a = inf_neg then inf_pos else -a
let sat_sub a b = sat_add a (sat_neg b)
let add_ivl a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let sub_ivl a b = { lo = sat_sub a.lo b.hi; hi = sat_sub a.hi b.lo }

(* Products stay exact only while both factors fit in 31 bits; anything
   larger widens to top rather than risk overflow. *)
let mul_fits v = finite v && abs v < 1 lsl 31

let mul_ivl a b =
  if mul_fits a.lo && mul_fits a.hi && mul_fits b.lo && mul_fits b.hi then begin
    let p1 = a.lo * b.lo and p2 = a.lo * b.hi in
    let p3 = a.hi * b.lo and p4 = a.hi * b.hi in
    {
      lo = min (min p1 p2) (min p3 p4);
      hi = max (max p1 p2) (max p3 p4);
    }
  end
  else top

let div_ivl a b =
  match is_const b with
  | Some c when c <> 0 && finite a.lo && finite a.hi ->
      let q1 = a.lo / c and q2 = a.hi / c in
      { lo = min q1 q2; hi = max q1 q2 }
  | _ -> top

let rem_ivl a b =
  match is_const b with
  | Some c when c <> 0 ->
      let m = abs c - 1 in
      if a.lo >= 0 then { lo = 0; hi = m } else { lo = -m; hi = m }
  | _ -> top

let and_ivl a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (x land y)
  | Some m, _ when m >= 0 -> { lo = 0; hi = m }
  | _, Some m when m >= 0 -> { lo = 0; hi = m }
  | _ ->
      if a.lo >= 0 && b.lo >= 0 && finite a.hi && finite b.hi then
        { lo = 0; hi = min a.hi b.hi }
      else top

(* Smallest all-ones mask covering [0, v]. *)
let mask_above v =
  let rec go m = if m >= v then m else go ((m lsl 1) lor 1) in
  if v <= 0 then 0 else go 1

let orlike_ivl a b =
  if a.lo >= 0 && b.lo >= 0 && finite a.hi && finite b.hi
     && a.hi < 1 lsl 40 && b.hi < 1 lsl 40
  then { lo = 0; hi = mask_above (max a.hi b.hi) }
  else top

let or_ivl a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (x lor y)
  | _ -> orlike_ivl a b

let xor_ivl a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (x lxor y)
  | _ -> orlike_ivl a b

let shl_ivl a b =
  match is_const b with
  | Some s when s >= 0 && s < 62 ->
      if a.lo >= 0 && finite a.hi && a.hi < 1 lsl (61 - s) then
        { lo = a.lo lsl s; hi = a.hi lsl s }
      else top
  | _ -> top

let shr_ivl a b =
  match is_const b with
  | Some s when s >= 0 && s < 63 && finite a.lo && finite a.hi ->
      { lo = a.lo asr s; hi = a.hi asr s }
  | _ -> top

let join_ivl a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let meet_ivl a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let widen_ivl ~old ~joined =
  {
    lo = (if joined.lo < old.lo then inf_neg else joined.lo);
    hi = (if joined.hi > old.hi then inf_pos else joined.hi);
  }

(* Predecessor/successor that respect the sentinels, for strict-branch
   refinement (x < y  ⇒  x ≤ y-1). *)
let sat_pred v = if finite v then v - 1 else v
let sat_succ v = if finite v then v + 1 else v

(* ---- granted-window classification --------------------------------- *)

(* Zero- and negative-length grants denote nothing and are dropped
   before the merge; touching windows ([b.base = a.base + a.len]) are
   coalesced along with overlapping ones, so an access spanning two
   abutting grants classifies [In_bounds] rather than [May_escape].
   The merged window keeps the first window's [writable] flag — callers
   partition by writability before normalizing, so flags never mix. *)
let normalize_windows ws =
  let ws = List.filter (fun w -> w.len > 0) ws in
  let ws = List.sort (fun a b -> compare (a.base, a.len) (b.base, b.len)) ws in
  let rec merge = function
    | a :: b :: rest when b.base <= a.base + a.len ->
        let hi = max (a.base + a.len) (b.base + b.len) in
        merge ({ a with len = hi - a.base } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge ws

(* Fast path over windows already put through {!normalize_windows}. *)
let classify_normalized windows (target : ivl) =
  let contained =
    List.exists
      (fun w ->
        target.lo >= w.base && target.hi <> inf_pos
        && target.hi < w.base + w.len)
      windows
  in
  if contained then In_bounds
  else
    let overlaps =
      List.exists
        (fun w -> not (target.hi < w.base || target.lo >= w.base + w.len))
        windows
    in
    if overlaps then May_escape else Escapes

let classify windows target = classify_normalized (normalize_windows windows) target

(* ---- transfer function --------------------------------------------- *)

let vtop = { ivl = top; timing = false }

let binop f (a : value) (b : value) =
  { ivl = f a.ivl b.ivl; timing = a.timing || b.timing }

let transfer (instr : Isa.instr) (pre : value array) : value array =
  let post = Array.copy pre in
  let set rd v = post.(rd) <- v in
  let g r = pre.(r) in
  (match instr with
  | Isa.Nop | Isa.Halt | Isa.Fence | Isa.Irq _ | Isa.Iret | Isa.Mtepc _
  | Isa.Store _ | Isa.Clflush _ | Isa.Jmp _ | Isa.Jr _
  | Isa.Beq _ | Isa.Bne _ | Isa.Blt _ | Isa.Bge _ ->
      ()
  | Isa.Movi (rd, imm) -> set rd { ivl = const imm; timing = false }
  | Isa.Movhi (rd, imm) -> (
      (* rd <- rd lor (imm lsl 32): exact only when rd is a known
         constant and the shift cannot overflow the OCaml int. *)
      match is_const (g rd).ivl with
      | Some v when imm >= 0 && imm < 1 lsl 30 ->
          set rd { ivl = const (v lor (imm lsl 32)); timing = (g rd).timing }
      | _ -> set rd { ivl = top; timing = (g rd).timing })
  | Isa.Mov (rd, rs) -> set rd (g rs)
  | Isa.Add (rd, rs1, rs2) -> set rd (binop add_ivl (g rs1) (g rs2))
  | Isa.Sub (rd, rs1, rs2) -> set rd (binop sub_ivl (g rs1) (g rs2))
  | Isa.Mul (rd, rs1, rs2) -> set rd (binop mul_ivl (g rs1) (g rs2))
  | Isa.Div (rd, rs1, rs2) -> set rd (binop div_ivl (g rs1) (g rs2))
  | Isa.Rem (rd, rs1, rs2) -> set rd (binop rem_ivl (g rs1) (g rs2))
  | Isa.And_ (rd, rs1, rs2) -> set rd (binop and_ivl (g rs1) (g rs2))
  | Isa.Or_ (rd, rs1, rs2) -> set rd (binop or_ivl (g rs1) (g rs2))
  | Isa.Xor_ (rd, rs1, rs2) -> set rd (binop xor_ivl (g rs1) (g rs2))
  | Isa.Shl (rd, rs1, rs2) -> set rd (binop shl_ivl (g rs1) (g rs2))
  | Isa.Shr (rd, rs1, rs2) -> set rd (binop shr_ivl (g rs1) (g rs2))
  | Isa.Load (rd, _, _) -> set rd vtop
  | Isa.Jal (rd, _) -> set rd vtop
  | Isa.Mfepc rd -> set rd vtop
  | Isa.Rdcycle rd -> set rd { ivl = top; timing = true });
  post

(* Refine the post-state along a branch edge.  Returns [None] when the
   edge is provably infeasible under the abstract state. *)
let refine_edge (instr : Isa.instr) ~taken (post : value array) :
    value array option =
  let with_regs updates =
    match updates with
    | None -> None
    | Some pairs ->
        let refined = Array.copy post in
        List.iter (fun (r, iv) -> refined.(r) <- { (refined.(r)) with ivl = iv })
          pairs;
        Some refined
  in
  let eq r1 r2 =
    match meet_ivl post.(r1).ivl post.(r2).ivl with
    | None -> None
    | Some m -> Some [ (r1, m); (r2, m) ]
  in
  let lt r1 r2 =
    (* r1 < r2 *)
    match
      ( meet_ivl post.(r1).ivl { lo = inf_neg; hi = sat_pred post.(r2).ivl.hi },
        meet_ivl post.(r2).ivl { lo = sat_succ post.(r1).ivl.lo; hi = inf_pos }
      )
    with
    | Some m1, Some m2 -> Some [ (r1, m1); (r2, m2) ]
    | _ -> None
  in
  let ge r1 r2 =
    (* r1 >= r2 *)
    match
      ( meet_ivl post.(r1).ivl { lo = post.(r2).ivl.lo; hi = inf_pos },
        meet_ivl post.(r2).ivl { lo = inf_neg; hi = post.(r1).ivl.hi } )
    with
    | Some m1, Some m2 -> Some [ (r1, m1); (r2, m2) ]
    | _ -> None
  in
  match (instr, taken) with
  | Isa.Beq (r1, r2, _), true -> with_regs (eq r1 r2)
  | Isa.Bne (r1, r2, _), false -> with_regs (eq r1 r2)
  | Isa.Blt (r1, r2, _), true -> with_regs (lt r1 r2)
  | Isa.Blt (r1, r2, _), false -> with_regs (ge r1 r2)
  | Isa.Bge (r1, r2, _), true -> with_regs (ge r1 r2)
  | Isa.Bge (r1, r2, _), false -> with_regs (lt r1 r2)
  | _ -> Some post

(* Joins that may refine an interval before it widens to infinity. *)
let widen_after = 3

let analyze ~cfg ~code_pages ~data_pages ~extra () =
  let code_words = code_pages * Cfg.page_words in
  let data_words = data_pages * Cfg.page_words in
  let read_windows =
    normalize_windows
      ({ base = 0; len = code_words; writable = false }
      :: { base = code_words; len = data_words; writable = true }
      :: extra)
  in
  let write_windows =
    normalize_windows
      ({ base = code_words; len = data_words; writable = true }
      :: List.filter (fun w -> w.writable) extra)
  in
  let n = cfg.Cfg.code_words in
  let states : value array option array = Array.make n None in
  let join_count = Array.make n 0 in
  let widenings = ref 0 in
  let entry () = Array.make Isa.num_regs vtop in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let push addr =
    if not queued.(addr) then (
      queued.(addr) <- true;
      Queue.add addr queue)
  in
  let propagate dst (post : value array) =
    match states.(dst) with
    | None ->
        states.(dst) <- Some (Array.copy post);
        push dst
    | Some old ->
        let changed = ref false in
        let joined =
          Array.mapi
            (fun r (o : value) ->
              let p = post.(r) in
              let ivl = join_ivl o.ivl p.ivl in
              let timing = o.timing || p.timing in
              if ivl <> o.ivl || timing <> o.timing then changed := true;
              { ivl; timing })
            old
        in
        if !changed then begin
          join_count.(dst) <- join_count.(dst) + 1;
          let joined =
            if join_count.(dst) > widen_after then (
              incr widenings;
              Array.mapi
                (fun r (j : value) ->
                  { j with ivl = widen_ivl ~old:old.(r).ivl ~joined:j.ivl })
                joined)
            else joined
          in
          states.(dst) <- Some joined;
          push dst
        end
  in
  List.iter
    (fun root ->
      states.(root) <- Some (entry ());
      push root)
    cfg.Cfg.roots;
  while not (Queue.is_empty queue) do
    let addr = Queue.pop queue in
    queued.(addr) <- false;
    match (states.(addr), cfg.Cfg.instrs.(addr)) with
    | None, _ | _, None -> ()
    | Some pre, Some instr ->
        let post = transfer instr pre in
        let is_branch =
          match instr with
          | Isa.Beq _ | Isa.Bne _ | Isa.Blt _ | Isa.Bge _ -> true
          | _ -> false
        in
        let branch_target =
          match instr with
          | Isa.Beq (_, _, t) | Isa.Bne (_, _, t)
          | Isa.Blt (_, _, t) | Isa.Bge (_, _, t) ->
              t
          | _ -> -1
        in
        List.iter
          (fun succ ->
            if is_branch && branch_target <> addr + 1 then
              let taken = succ = branch_target in
              match refine_edge instr ~taken post with
              | Some refined -> propagate succ refined
              | None -> ()
            else propagate succ post)
          cfg.Cfg.succs.(addr)
  done;
  (* Bounded narrowing: re-apply the transfer equations to the widened
     post-fixpoint a couple of times.  The equations are monotone, so
     from a post-fixpoint each application is still a sound
     over-approximation and descends toward the true fixpoint — this
     recovers bounds widening threw to +inf whenever a branch
     refinement pins them (the counted-loop store pattern).  States are
     additionally met with their previous value so the sequence is
     decreasing by construction. *)
  let edge_post src dst =
    match (states.(src), cfg.Cfg.instrs.(src)) with
    | Some pre, Some instr -> (
        let post = transfer instr pre in
        match instr with
        | Isa.Beq (_, _, t) | Isa.Bne (_, _, t)
        | Isa.Blt (_, _, t) | Isa.Bge (_, _, t)
          when t <> src + 1 ->
            refine_edge instr ~taken:(dst = t) post
        | _ -> Some post)
    | _ -> None
  in
  let narrow_passes = 2 in
  for _pass = 1 to narrow_passes do
    for addr = 0 to n - 1 do
      if
        cfg.Cfg.reachable.(addr)
        && states.(addr) <> None
        && not (List.mem addr cfg.Cfg.roots)
      then begin
        let inflow =
          List.fold_left
            (fun acc pred ->
              match edge_post pred addr with
              | None -> acc
              | Some post -> (
                  match acc with
                  | None -> Some (Array.copy post)
                  | Some a ->
                      Some
                        (Array.mapi
                           (fun r (v : value) ->
                             {
                               ivl = join_ivl v.ivl post.(r).ivl;
                               timing = v.timing || post.(r).timing;
                             })
                           a)))
            None cfg.Cfg.preds.(addr)
        in
        match (inflow, states.(addr)) with
        | Some v, Some old ->
            states.(addr) <-
              Some
                (Array.mapi
                   (fun r (nv : value) ->
                     match meet_ivl nv.ivl old.(r).ivl with
                     | Some ivl -> { ivl; timing = nv.timing && old.(r).timing }
                     | None -> nv)
                   v)
        | _ -> ()
      end
    done
  done;
  (* Replay pass: with the fixpoint in hand, classify every reachable
     memory access and harvest the side-channel / indirect-jump facts. *)
  let accesses = ref [] in
  let tainted_branches = ref [] in
  let jr_resolved = ref [] in
  for addr = n - 1 downto 0 do
    match (states.(addr), cfg.Cfg.instrs.(addr)) with
    | None, _ | _, None -> ()
    | Some pre, Some instr -> (
        let record kind base imm =
          let bv = pre.(base) in
          let target = add_ivl bv.ivl (const imm) in
          let windows =
            match kind with Write -> write_windows | Read | Flush -> read_windows
          in
          accesses :=
            { addr; kind; target; cls = classify_normalized windows target;
              tainted = bv.timing }
            :: !accesses
        in
        match instr with
        | Isa.Load (_, rs, imm) -> record Read rs imm
        | Isa.Store (rd, _, imm) -> record Write rd imm
        | Isa.Clflush (rs, imm) -> record Flush rs imm
        | Isa.Beq (r1, r2, _) | Isa.Bne (r1, r2, _)
        | Isa.Blt (r1, r2, _) | Isa.Bge (r1, r2, _) ->
            if pre.(r1).timing then
              tainted_branches := { addr; reg = r1 } :: !tainted_branches;
            if r2 <> r1 && pre.(r2).timing then
              tainted_branches := { addr; reg = r2 } :: !tainted_branches
        | Isa.Jr rs -> (
            match is_const pre.(rs).ivl with
            | Some t -> jr_resolved := (addr, [ t ]) :: !jr_resolved
            | None -> ())
        | _ -> ())
  done;
  {
    pre = states;
    accesses = !accesses;
    tainted_branches = !tainted_branches;
    jr_resolved = !jr_resolved;
    widenings = !widenings;
  }
