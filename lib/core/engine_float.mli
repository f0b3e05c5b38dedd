(** Double-precision reference retrieval engine.

    Plays the role of the paper's "high precision floating point Matlab
    simulation": the golden model the fixed-point datapath
    ({!Engine_fixed}, [Rtlsim]) must agree with.

    Ranking is {e stable}: on equal scores the variant listed first in
    the case base wins, matching the hardware's strict [S > S_best]
    update rule (Fig. 6). *)

type ranked = float Retrieval.ranked

val score_impl :
  ?amalgamation:Similarity.amalgamation ->
  Attr.Schema.t ->
  Request.t ->
  Impl.t ->
  float
(** Global similarity of one variant against the request.  Constraints
    the variant (or the schema) does not know contribute local
    similarity 0.  Weights are normalised internally.

    Scoring allocates nothing: one merge walk down the request's and
    the variant's ID-sorted attribute lists folds the amalgamation in
    place, with no weights, pairs or option built per attribute.  The
    sum, divisions, fold order and clamping are those of
    {!Similarity.amalgamate} over {!Request.normalized_weights}, so the
    result is bit-identical to folding that list.  This is the one
    float scorer: the ranking functions below, the ["float"] engine,
    {!Engine_fixed}'s agreement check, the baselines and the allocation
    manager all score through it. *)

val rank_all :
  ?amalgamation:Similarity.amalgamation ->
  Casebase.t ->
  Request.t ->
  (ranked list, Retrieval.error) result
(** Every variant of the requested type, best first. *)

val best :
  ?amalgamation:Similarity.amalgamation ->
  Casebase.t ->
  Request.t ->
  (ranked, Retrieval.error) result
(** The most-similar variant — the paper's Fig. 6 algorithm. *)

val n_best :
  ?amalgamation:Similarity.amalgamation ->
  n:int ->
  Casebase.t ->
  Request.t ->
  (ranked list, Retrieval.error) result
(** Up to [n] best variants (the paper's announced "next step",
    Sec. 5). [n <= 0] yields an empty list.

    A stable top-[n] insertion: the result is the first [n] of
    {!rank_all}'s stable order (ties keep case-base order), and a
    variant that does not make the cut allocates nothing. *)

val above_threshold :
  ?amalgamation:Similarity.amalgamation ->
  threshold:float ->
  Casebase.t ->
  Request.t ->
  (ranked list, Retrieval.error) result
(** Variants whose score is [>= threshold], best first — the rejection
    rule of Sec. 3 ("reject all results below a given threshold
    similarity"). *)
