let op_query = 1
let op_count = 2

type t = {
  name : string;
  mutable docs : string array; (* id = index *)
  mutable ndocs : int;
  mutable queries : int;
}

(* Ticks to scan one document. *)
let scan_cost = 20

let create ~name () = { name; docs = Array.make 16 ""; ndocs = 0; queries = 0 }

let add_document t doc =
  if t.ndocs = Array.length t.docs then begin
    let bigger = Array.make (2 * t.ndocs) "" in
    Array.blit t.docs 0 bigger 0 t.ndocs;
    t.docs <- bigger
  end;
  t.docs.(t.ndocs) <- doc;
  t.ndocs <- t.ndocs + 1;
  t.ndocs - 1

let words_of s =
  String.split_on_char ' ' (String.lowercase_ascii s)
  |> List.filter (fun w -> w <> "")
  |> List.sort_uniq compare

let score ~query ~doc =
  let qw = words_of query and dw = words_of doc in
  List.length (List.filter (fun w -> List.mem w dw) qw)

let encode_query ~k query =
  Array.append [| Int64.of_int op_query; Int64.of_int k |] (Codec.words_of_string query)

let top_k t ~k query =
  let scored =
    List.init t.ndocs (fun i -> (score ~query ~doc:t.docs.(i), i))
    |> List.filter (fun (s, _) -> s > 0)
    |> List.sort (fun (s1, i1) (s2, i2) ->
           if s1 <> s2 then compare s2 s1 else compare i1 i2)
  in
  List.filteri (fun idx _ -> idx < k) scored |> List.map snd

let handle t ~now:_ request =
  if Array.length request = 0 then Device.error ~code:Device.status_bad_request ~latency:1
  else begin
    let op = Int64.to_int request.(0) in
    if op = op_query then begin
      if Array.length request < 3 then
        Device.error ~code:Device.status_bad_request ~latency:1
      else begin
        let k = Int64.to_int request.(1) in
        match Codec.string_of_words (Array.sub request 2 (Array.length request - 2)) with
        | None -> Device.error ~code:Device.status_bad_request ~latency:1
        | Some query ->
          t.queries <- t.queries + 1;
          let ids = top_k t ~k query in
          let payload =
            List.fold_left
              (fun acc id ->
                Array.concat
                  [ acc; [| Int64.of_int id |]; Codec.words_of_string t.docs.(id) ])
              [| Int64.of_int (List.length ids) |]
              ids
          in
          Device.ok ~payload ~latency:(10 + (scan_cost * t.ndocs)) ()
      end
    end
    else if op = op_count then
      Device.ok ~payload:[| Int64.of_int t.ndocs |] ~latency:10 ()
    else Device.error ~code:Device.status_bad_request ~latency:1
  end

let decode_results payload =
  if Array.length payload = 0 then None
  else begin
    let n = Int64.to_int payload.(0) in
    let rec take i off acc =
      if i = n then Some (List.rev acc)
      else if off + 2 > Array.length payload then None
      else begin
        let id = Int64.to_int payload.(off) in
        let len = Int64.to_int payload.(off + 1) in
        let nwords = (len + 7) / 8 in
        if off + 1 + 1 + nwords > Array.length payload then None
        else begin
          match
            Codec.string_of_words (Array.sub payload (off + 1) (1 + nwords))
          with
          | None -> None
          | Some doc -> take (i + 1) (off + 2 + nwords) ((id, doc) :: acc)
        end
      end
    in
    take 0 1 []
  end

let device t =
  {
    Device.name = t.name;
    handle = (fun ~now req -> handle t ~now req);
  }
