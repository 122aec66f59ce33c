// Package ml is the supervised-regression toolkit the reproduction uses in
// place of scikit-learn: the Regressor contract, feature scaling, dataset
// splitting (plain, k-fold, and the paper's stratified shuffle splits), a
// scaler+model pipeline and PCA. Concrete models live in the subpackages
// linreg, knn, svr, tree, ensemble and mlp; evaluation metrics (including
// Kendall τ and the mean-confidence-interval helper the planner's
// convergence criteria use) in metrics; and cross-validation/
// hyperparameter search/learning curves in modelsel.
package ml
