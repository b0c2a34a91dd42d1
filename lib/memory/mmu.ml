type perm = { r : bool; w : bool; x : bool }

let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }

type fault =
  | Unmapped of int
  | Perm_denied of int
  | Lock_violation of string

let pp_fault ppf = function
  | Unmapped a -> Format.fprintf ppf "unmapped address %d" a
  | Perm_denied a -> Format.fprintf ppf "permission denied at address %d" a
  | Lock_violation m -> Format.fprintf ppf "executable-lock violation: %s" m

type pte = { frame : int; perm : perm }

(* Direct-mapped PTE memo in front of the hash table for the
   per-instruction translation path.  Entries are validated against
   [gen], which every table mutation bumps, so a stale mapping can never
   be served.  Parallel int arrays: no records, no boxing. *)
let memo_slots = 64

let memo_mask = memo_slots - 1

type t = {
  page_size : int;
  page_shift : int; (* log2 page_size: page math without div *)
  page_mask : int;  (* page_size - 1 *)
  table : (int, pte) Hashtbl.t;
  mutable lock : bool;
  locked_vpages : (int, unit) Hashtbl.t; (* executable pages at lock time *)
  locked_frames : (int, unit) Hashtbl.t; (* their backing frames *)
  mutable gen : int; (* bumped on any table mutation *)
  memo_vpage : int array; (* -1 = empty *)
  memo_frame : int array;
  memo_perm : int array; (* bit 0 = r, 1 = w, 2 = x *)
  memo_gen : int array;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(page_size = 256) () =
  if not (is_power_of_two page_size) then
    invalid_arg "Mmu.create: page_size must be a power of two";
  {
    page_size;
    page_shift = log2 page_size;
    page_mask = page_size - 1;
    table = Hashtbl.create 64;
    lock = false;
    locked_vpages = Hashtbl.create 8;
    locked_frames = Hashtbl.create 8;
    gen = 0;
    memo_vpage = Array.make memo_slots (-1);
    memo_frame = Array.make memo_slots 0;
    memo_perm = Array.make memo_slots 0;
    memo_gen = Array.make memo_slots 0;
  }

let page_size t = t.page_size
let page_shift t = t.page_shift
let locked t = t.lock

let lock_check_install t ~vpage ~frame (perm : perm) =
  (* Rules applied to any PTE installation/modification once locked. *)
  if not t.lock then Ok ()
  else if Hashtbl.mem t.locked_vpages vpage then
    Error (Lock_violation (Printf.sprintf "page %d is a locked executable page" vpage))
  else if perm.x then
    Error (Lock_violation (Printf.sprintf "cannot create executable page %d after lock" vpage))
  else if perm.w && Hashtbl.mem t.locked_frames frame then
    Error
      (Lock_violation
         (Printf.sprintf "cannot map writable alias of locked executable frame %d" frame))
  else Ok ()

let invalidate_memo t = t.gen <- t.gen + 1

let map t ~vpage ~frame perm =
  if vpage < 0 || frame < 0 then invalid_arg "Mmu.map: negative page or frame";
  match lock_check_install t ~vpage ~frame perm with
  | Error _ as e -> e
  | Ok () ->
    Hashtbl.replace t.table vpage { frame; perm };
    invalidate_memo t;
    Ok ()

let unmap t ~vpage =
  if t.lock && Hashtbl.mem t.locked_vpages vpage then
    Error (Lock_violation (Printf.sprintf "cannot unmap locked executable page %d" vpage))
  else begin
    Hashtbl.remove t.table vpage;
    invalidate_memo t;
    Ok ()
  end

let protect t ~vpage perm =
  match Hashtbl.find_opt t.table vpage with
  | None -> Error (Unmapped (vpage * t.page_size))
  | Some pte -> (
    match lock_check_install t ~vpage ~frame:pte.frame perm with
    | Error _ as e -> e
    | Ok () ->
      Hashtbl.replace t.table vpage { pte with perm };
      invalidate_memo t;
      Ok ())

let translate t ~addr ~access =
  if addr < 0 then Error (Unmapped addr)
  else begin
    let vpage = addr / t.page_size in
    let offset = addr mod t.page_size in
    match Hashtbl.find_opt t.table vpage with
    | None -> Error (Unmapped addr)
    | Some pte ->
      let allowed =
        match access with
        | `R -> pte.perm.r
        | `W -> pte.perm.w
        | `X -> pte.perm.x
      in
      if allowed then Ok ((pte.frame * t.page_size) + offset)
      else Error (Perm_denied addr)
  end

let perm_bits (p : perm) =
  (if p.r then 1 else 0) lor (if p.w then 2 else 0) lor if p.x then 4 else 0

let access_bit = function `R -> 1 | `W -> 2 | `X -> 4

(* Hot-path translation: same decision procedure as [translate], but the
   result is a bare int (negative = fault) so the per-instruction
   fetch/load/store path allocates no [Ok]/[Error]/[Some] boxes, and the
   common case is served from the direct-mapped memo (two array reads
   and a generation compare) instead of a hash lookup.  Unmapped pages
   are never memoized: fault paths re-walk the table, which keeps the
   memo entries homogeneous (present mappings only). *)
let translate_raw t ~addr ~access =
  if addr < 0 then -1
  else begin
    let vpage = addr lsr t.page_shift in
    let slot = vpage land memo_mask in
    if t.memo_vpage.(slot) = vpage && t.memo_gen.(slot) = t.gen then
      if t.memo_perm.(slot) land access_bit access <> 0 then
        (t.memo_frame.(slot) lsl t.page_shift) lor (addr land t.page_mask)
      else -1
    else begin
      match Hashtbl.find t.table vpage with
      | exception Not_found -> -1
      | pte ->
        t.memo_vpage.(slot) <- vpage;
        t.memo_gen.(slot) <- t.gen;
        t.memo_frame.(slot) <- pte.frame;
        t.memo_perm.(slot) <- perm_bits pte.perm;
        if perm_bits pte.perm land access_bit access <> 0 then
          (pte.frame lsl t.page_shift) lor (addr land t.page_mask)
        else -1
    end
  end

let lookup t ~vpage =
  match Hashtbl.find_opt t.table vpage with
  | None -> None
  | Some pte -> Some (pte.frame, pte.perm)

let lock_executable t =
  if not t.lock then begin
    t.lock <- true;
    invalidate_memo t;
    Hashtbl.iter
      (fun vpage pte ->
        if pte.perm.x then begin
          Hashtbl.replace t.locked_vpages vpage ();
          Hashtbl.replace t.locked_frames pte.frame ();
          (* Enforce W^X going forward: an executable page loses W. *)
          if pte.perm.w then
            Hashtbl.replace t.table vpage { pte with perm = { pte.perm with w = false } }
        end)
      t.table
  end

let executable_pages t =
  Hashtbl.fold (fun vp pte acc -> if pte.perm.x then vp :: acc else acc) t.table []
  |> List.sort compare

let mapped_pages t =
  Hashtbl.fold (fun vp pte acc -> (vp, pte.frame, pte.perm) :: acc) t.table []
  |> List.sort compare
